package snap

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/refsta"
)

// buildTables generates a small design and extracts its tables (same preset
// shape as the batch test fixtures).
func buildTables(t testing.TB, seed int64) *circuitops.Tables {
	t.Helper()
	b, err := bench.Generate(bench.Spec{
		Name: "snaptest", Seed: seed, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 8, Layers: 4, Width: 8,
		CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
		Period: 1, Uncertainty: 10, Die: 80, VioFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return circuitops.Extract(ref)
}

func compileState(t testing.TB, seed int64) *core.State {
	t.Helper()
	st, err := core.Compile(buildTables(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var testScenarios = []core.Scenario{
	{Name: "ss", DelayScale: 1.18, SigmaScale: 1.25, RCScale: 1.10},
	{Name: "tt", DelayScale: 1.00, SigmaScale: 1.00, RCScale: 1.00},
	{Name: "ff", DelayScale: 0.86, SigmaScale: 0.90, RCScale: 0.92},
}

func TestRoundTrip(t *testing.T) {
	st := compileState(t, 7)
	buf := Encode(st, testScenarios, "deadbeef")
	s, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(st, s.State) {
		t.Fatal("decoded state differs from compiled state")
	}
	if !reflect.DeepEqual(testScenarios, s.Scenarios) {
		t.Fatalf("scenarios: got %+v", s.Scenarios)
	}
	if s.Key != "deadbeef" {
		t.Fatalf("key: got %q", s.Key)
	}
	if s.Bytes != int64(len(buf)) {
		t.Fatalf("bytes: got %d want %d", s.Bytes, len(buf))
	}
	// Re-encoding the decoded state must be byte-identical: the format is
	// canonical (fixed section order, no timestamps).
	if buf2 := Encode(s.State, s.Scenarios, s.Key); string(buf2) != string(buf) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestRoundTripNoScenariosNoKey(t *testing.T) {
	st := compileState(t, 8)
	s, err := Decode(Encode(st, nil, ""))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(s.Scenarios) != 0 || s.Key != "" {
		t.Fatalf("expected empty scenarios/key, got %d/%q", len(s.Scenarios), s.Key)
	}
	if !reflect.DeepEqual(st, s.State) {
		t.Fatal("decoded state differs from compiled state")
	}
}

// TestWarmColdBitIdentical is the warm-start contract: an engine restored
// from a snapshot produces bit-identical slacks, WNS/TNS, hold slacks and
// gradients to the cold-built engine, at any worker count — including the
// scenario-batched path.
func TestWarmColdBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 21} {
		tab := buildTables(t, seed)
		st, err := core.Compile(tab)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(Encode(st, testScenarios, ""))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opt := core.Options{TopK: 8, Hold: true, Workers: workers}

			cold, err := core.NewEngine(tab, opt)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := s.Engine(opt)
			if err != nil {
				t.Fatal(err)
			}
			cw, ww := cold.Run(), warm.Run()
			for i := range cw {
				if cw[i] != ww[i] {
					t.Fatalf("seed %d workers %d ep %d: warm slack %v != cold %v", seed, workers, i, ww[i], cw[i])
				}
			}
			if cold.WNS() != warm.WNS() || cold.TNS() != warm.TNS() {
				t.Fatalf("seed %d workers %d: warm WNS/TNS %v/%v != cold %v/%v",
					seed, workers, warm.WNS(), warm.TNS(), cold.WNS(), cold.TNS())
			}
			ch, wh := cold.EvalHoldSlacks(), warm.EvalHoldSlacks()
			for i := range ch {
				if ch[i] != wh[i] {
					t.Fatalf("seed %d workers %d ep %d: warm hold slack %v != cold %v", seed, workers, i, wh[i], ch[i])
				}
			}
			cold.Backward()
			warm.Backward()
			for arc := int32(0); int(arc) < cold.NumArcs(); arc++ {
				for rf := 0; rf < 2; rf++ {
					if cold.ArcGradMean(arc, rf) != warm.ArcGradMean(arc, rf) ||
						cold.ArcGradStd(arc, rf) != warm.ArcGradStd(arc, rf) {
						t.Fatalf("seed %d workers %d arc %d rf %d: gradient mismatch", seed, workers, arc, rf)
					}
				}
			}
			cold.Close()
			warm.Close()

			// Scenario-batched path (S=3).
			bcold, err := core.NewEngineScenarios(tab, testScenarios, opt)
			if err != nil {
				t.Fatal(err)
			}
			bwarm, err := core.NewEngineLanes(s.State, s.Scenarios, opt)
			if err != nil {
				t.Fatal(err)
			}
			bcold.Run()
			bwarm.Run()
			for sc := range testScenarios {
				cs, ws := bcold.LaneSlacks(sc), bwarm.LaneSlacks(sc)
				for i := range cs {
					if cs[i] != ws[i] {
						t.Fatalf("seed %d workers %d scenario %d ep %d: batched warm slack %v != cold %v",
							seed, workers, sc, i, ws[i], cs[i])
					}
				}
				if core.WNS(cs) != core.WNS(ws) || core.TNS(cs) != core.TNS(ws) {
					t.Fatalf("seed %d workers %d scenario %d: batched WNS/TNS mismatch", seed, workers, sc)
				}
			}
			bcold.Close()
			bwarm.Close()
		}
	}
}

// TestWarmColdBitIdenticalPresets runs the warm/cold differential over real
// bench presets — the configurations the tools actually serve — including
// the S=3 corners path. -short keeps it to the smallest preset.
func TestWarmColdBitIdenticalPresets(t *testing.T) {
	names := []struct {
		name string
		spec func(string) (bench.Spec, error)
	}{
		{"des", bench.IWLSSpec},
		{"block-5", bench.BlockSpec},
	}
	if testing.Short() {
		names = names[:1]
	}
	for _, tc := range names {
		spec, err := tc.spec(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tab := circuitops.Extract(ref)
		st, err := core.Compile(tab)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(Encode(st, testScenarios, ""))
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{TopK: 8, Workers: 4}

		cold, err := core.NewEngine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.Engine(opt)
		if err != nil {
			t.Fatal(err)
		}
		cw, ww := cold.Run(), warm.Run()
		for i := range cw {
			if cw[i] != ww[i] {
				t.Fatalf("%s ep %d: warm slack %v != cold %v", tc.name, i, ww[i], cw[i])
			}
		}
		if cold.WNS() != warm.WNS() || cold.TNS() != warm.TNS() {
			t.Fatalf("%s: warm WNS/TNS mismatch", tc.name)
		}
		cold.Backward()
		warm.Backward()
		for arc := int32(0); int(arc) < cold.NumArcs(); arc += 17 {
			for rf := 0; rf < 2; rf++ {
				if cold.ArcGradMean(arc, rf) != warm.ArcGradMean(arc, rf) {
					t.Fatalf("%s arc %d rf %d: gradient mismatch", tc.name, arc, rf)
				}
			}
		}
		cold.Close()
		warm.Close()

		bcold, err := core.NewEngineScenarios(tab, testScenarios, opt)
		if err != nil {
			t.Fatal(err)
		}
		bwarm, err := core.NewEngineLanes(s.State, s.Scenarios, opt)
		if err != nil {
			t.Fatal(err)
		}
		bcold.Run()
		bwarm.Run()
		for sc := range testScenarios {
			cs, ws := bcold.LaneSlacks(sc), bwarm.LaneSlacks(sc)
			for i := range cs {
				if cs[i] != ws[i] {
					t.Fatalf("%s scenario %d ep %d: batched warm slack mismatch", tc.name, sc, i)
				}
			}
		}
		bcold.Close()
		bwarm.Close()
	}
}

// TestExportState closes the save loop: an engine's exported state encodes,
// decodes and restores to an engine with identical results — including arc
// annotations mutated after construction (the serving daemon's committed
// ECOs).
func TestExportState(t *testing.T) {
	tab := buildTables(t, 11)
	opt := core.Options{TopK: 8, Workers: 2}
	e, err := core.NewEngine(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := e.ArcDelay(0, 0)
	d.Mean *= 1.25
	e.SetArcDelay(0, 0, d)
	want := e.Run()

	s, err := Decode(Encode(e.ExportState(), nil, ""))
	if err != nil {
		t.Fatal(err)
	}
	if s.State.Design != e.Design() {
		t.Fatalf("design: got %q want %q", s.State.Design, e.Design())
	}
	warm, err := s.Engine(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	got := warm.Run()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ep %d: restored slack %v != exported engine's %v", i, got[i], want[i])
		}
	}
}

// TestCorruption: every integrity failure is a typed error matching
// ErrCorrupt — truncation at any length, bad magic, bad version, any
// single flipped byte — and never a panic.
func TestCorruption(t *testing.T) {
	st := compileState(t, 5)
	buf := Encode(st, testScenarios, "k")

	expectCorrupt := func(name string, b []byte) {
		t.Helper()
		s, err := Decode(b)
		if err == nil {
			t.Fatalf("%s: decode succeeded on corrupt input", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v does not match ErrCorrupt", name, err)
		}
		if s != nil {
			t.Fatalf("%s: non-nil snapshot alongside error", name)
		}
	}

	// Truncation at every prefix length across the header and a stride
	// through the body.
	for n := 0; n < len(buf); n++ {
		if n > 64 && n%977 != 0 {
			continue
		}
		expectCorrupt("truncated", buf[:n])
	}

	// Bad magic.
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	expectCorrupt("magic", bad)

	// Unsupported version.
	bad = append([]byte(nil), buf...)
	bad[8] = 99
	expectCorrupt("version", bad)

	// Any flipped byte must fail the checksum (or a later structural check).
	for off := 0; off < len(buf); off += 131 {
		bad = append([]byte(nil), buf...)
		bad[off] ^= 0x5A
		expectCorrupt("flip", bad)
	}
	// And flipping the checksum itself.
	bad = append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x01
	expectCorrupt("crc", bad)

	// A forged section count with a recomputed checksum must still fail
	// structurally, not panic: drop the slab sections but keep the CRC valid.
	forged := append([]byte(nil), buf[:headerLen]...)
	forged = appendSection(forged, secMeta, nil)
	expectCorrupt("forged", forged)
}

func TestDecodeRejectsForgedValidCRC(t *testing.T) {
	// A state that passes the checksum but violates structural invariants
	// (fan-in CSR pointing out of range) must be rejected by Validate.
	st := compileState(t, 5)
	if len(st.FaninArc) == 0 {
		t.Skip("no arcs")
	}
	st.FaninArc[0] = int32(len(st.ArcFrom)) + 7 // out of range
	_, err := Decode(Encode(st, nil, ""))
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged state not rejected: %v", err)
	}
}

func FuzzSnapRoundTrip(f *testing.F) {
	st, err := core.Compile(func() *circuitops.Tables {
		b, err := bench.Generate(bench.Spec{
			Name: "fuzz", Seed: 1, Tech: liberty.TechN3(),
			Groups: 1, FFsPerGroup: 4, Layers: 2, Width: 4,
			CrossFrac: 0.1, NumPIs: 2, NumPOs: 2,
			Period: 1, Uncertainty: 10, Die: 40, VioFrac: 0.1,
		})
		if err != nil {
			f.Fatal(err)
		}
		ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
		if err != nil {
			f.Fatal(err)
		}
		return circuitops.Extract(ref)
	}())
	if err != nil {
		f.Fatal(err)
	}
	valid := Encode(st, testScenarios, "fuzz")
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	// Canonical file carrying sections this reader has no schema for: a
	// block-model payload and a synthetic future id.
	f.Add(EncodeExtra(st, testScenarios, "fuzz", []ExtraSection{
		{ID: SecBlockModel, Payload: []byte("opaque block model bytes")},
		{ID: 7001, Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic; on success the snapshot must re-encode
		// byte-identically (canonical format, unknown sections carried
		// through opaquely) and restore a working engine.
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		if got := EncodeExtra(s.State, s.Scenarios, s.Key, s.Extra); string(got) != string(data) {
			t.Fatal("accepted snapshot does not re-encode byte-identically")
		}
		e, err := s.Engine(core.Options{TopK: 2, Workers: 1})
		if err != nil {
			return // options-level rejection is fine; it must just not panic
		}
		e.Run()
		e.Close()
	})
}

// TestExtraSectionForwardCompat pins the forward-compatibility contract: a
// container carrying section types this reader has no schema for — the
// block-model section, or ids from a future minor version — decodes cleanly,
// leaves the structured content untouched, and re-encodes byte-identically
// through the canonical EncodeExtra framing (unknown data is carried, never
// dropped).
func TestExtraSectionForwardCompat(t *testing.T) {
	st := compileState(t, 11)
	extras := []ExtraSection{
		{ID: SecBlockModel, Payload: []byte("opaque block-model payload")},
		{ID: 7001, Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
	}
	buf := EncodeExtra(st, testScenarios, "fc", extras)
	s, err := Decode(buf)
	if err != nil {
		t.Fatalf("unknown sections must be skipped, not rejected: %v", err)
	}
	if len(s.Extra) != len(extras) {
		t.Fatalf("captured %d extra sections, want %d", len(s.Extra), len(extras))
	}
	for i, ex := range extras {
		if s.Extra[i].ID != ex.ID || !bytes.Equal(s.Extra[i].Payload, ex.Payload) {
			t.Fatalf("extra section %d not carried through intact", i)
		}
	}
	// The structured content decodes exactly as it would without the extras.
	if got, want := Encode(s.State, s.Scenarios, s.Key), Encode(st, testScenarios, "fc"); !bytes.Equal(got, want) {
		t.Fatal("unknown sections perturbed the structured content")
	}
	// Canonical re-encode round-trips the whole file byte-identically.
	if !bytes.Equal(EncodeExtra(s.State, s.Scenarios, s.Key, s.Extra), buf) {
		t.Fatal("re-encode with carried extras is not byte-identical")
	}
	// And a plain Encode of the same state is exactly the extras-free file.
	if bytes.Equal(Encode(s.State, s.Scenarios, s.Key), buf) {
		t.Fatal("extras-free encode unexpectedly matches the extras file")
	}
}
