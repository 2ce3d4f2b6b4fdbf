// Block-model codec tests: structural round-trip through the SecBlockModel
// payload, cache-backed save/load, and a fuzzer holding DecodeModel
// panic-free on arbitrary bytes.
package hier

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/snap"
)

// minimalTables is a 3-pin block — port startpoint, one cell arc, one net
// arc, port endpoint — small enough for fuzz seeding.
func minimalTables() *circuitops.Tables {
	inf := math.Inf(1)
	return &circuitops.Tables{
		Design: "mini", NumPins: 3, Period: 10, NSigma: 3,
		ClockNodes: []circuitops.ClockNodeRow{{Parent: -1, CumVar: 0}},
		SPs:        []circuitops.SPRow{{Pin: 0, ClockNode: 0}},
		EPs: []circuitops.EPRow{{
			Pin: 2, CaptureNode: 0,
			BaseReqRise: 8, BaseReqFall: 8,
			HoldReqRise: inf, HoldReqFall: inf,
		}},
		Arcs: []circuitops.ArcRow{
			{From: 0, To: 1, Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
				MeanRise: 1, StdRise: 0.1, MeanFall: 1.2, StdFall: 0.15},
			{From: 1, To: 2, Kind: 1, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
				MeanRise: 0.5, StdRise: 0.05, MeanFall: 0.5, StdFall: 0.05},
		},
	}
}

func testModel(tb testing.TB) *BlockModel {
	tb.Helper()
	st := bootBlock(tb, "des")
	m, err := Extract(st, core.DefaultScenarios(), core.Options{TopK: 8, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestModelRoundTrip(t *testing.T) {
	m := testModel(t)
	buf := EncodeModel(m)
	m2, err := DecodeModel(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatal("decoded model differs from original")
	}
	// Canonical: re-encode is byte-identical.
	if !bytes.Equal(buf, EncodeModel(m2)) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestModelDecodeRejects(t *testing.T) {
	m := testModel(t)
	buf := EncodeModel(m)
	if _, err := DecodeModel(append(buf, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeModel(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0]++ // version
	if _, err := DecodeModel(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
}

func TestSaveLoadModel(t *testing.T) {
	cache, err := snap.NewCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	if _, err := SaveModel(cache, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(cache, m.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatal("loaded model differs from saved model")
	}
	// Unknown hash is a clean miss, not an error.
	if got, err := LoadModel(cache, "0000"); err != nil || got != nil {
		t.Fatalf("unknown hash: model=%v err=%v (want clean miss)", got != nil, err)
	}
	// A mis-keyed entry (payload hash != requested hash) is an error.
	buf := snap.EncodeExtra(&core.State{Design: m.Design}, nil, modelKey("feed"),
		[]snap.ExtraSection{{ID: snap.SecBlockModel, Payload: EncodeModel(m)}})
	if _, _, err := cache.StoreBytes(modelKey("feed"), buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(cache, "feed"); err == nil {
		t.Error("mis-keyed cache entry not rejected")
	}
}

func FuzzDecodeModel(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeModel(&BlockModel{Design: "d", Hash: "h", Period: 1, NSigma: 3, TopK: 4}))
	st, err := core.Compile(minimalTables())
	if err == nil {
		if m, err := Extract(st, nil, core.Options{TopK: 2}); err == nil {
			f.Add(EncodeModel(m))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode byte-identically (the format
		// has no redundancy and rejects trailing bytes).
		if !bytes.Equal(EncodeModel(m), data) {
			t.Fatal("accepted payload does not re-encode byte-identically")
		}
	})
}
