package core

import (
	"math"
	"testing"

	"insta/internal/circuitops"
)

// holdHarness builds a design with hold analysis enabled in the reference
// engine and re-extracts tables so the hold requirements are populated.
func holdHarness(t testing.TB, seed int64) *harness {
	t.Helper()
	h := buildHarness(t, testSpec(seed))
	h.ref.EnableHoldAnalysis()
	h.tab = circuitops.Extract(h.ref)
	return h
}

func TestHoldExactWithLargeK(t *testing.T) {
	h := holdHarness(t, 51)
	e, err := NewEngine(h.tab, Options{TopK: len(h.tab.SPs), Hold: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	got := e.EvalHoldSlacks()
	want := h.ref.HoldSlacks()
	if len(got) != len(want) {
		t.Fatalf("hold ep counts %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.IsInf(want[i], 1) && math.IsInf(got[i], 1) {
			continue
		}
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("ep %d: INSTA hold %v != ref %v", i, got[i], want[i])
		}
	}
}

func TestHoldMetricsConsistent(t *testing.T) {
	h := holdHarness(t, 52)
	e, err := NewEngine(h.tab, Options{TopK: 4, Hold: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	slacks := e.EvalHoldSlacks()
	var wns, tns float64
	for _, s := range slacks {
		if math.IsInf(s, 0) {
			continue
		}
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
		}
	}
	if e.HoldWNS() != wns || e.HoldTNS() != tns {
		t.Errorf("HoldWNS/TNS %v/%v, want %v/%v", e.HoldWNS(), e.HoldTNS(), wns, tns)
	}
}

func TestHoldDisabledByDefault(t *testing.T) {
	h := holdHarness(t, 53)
	e, err := NewEngine(h.tab, Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.HoldEnabled() {
		t.Error("hold enabled without Options.Hold")
	}
}

func TestHoldSlackAboveSetupArrivalRelation(t *testing.T) {
	// The early corner can never exceed the late corner, so for a given
	// endpoint the early arrival that determines hold is <= the late arrival
	// that determines setup. Sanity-check via queue state.
	h := holdHarness(t, 54)
	e, err := NewEngine(h.tab, Options{TopK: 2, Hold: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	for _, p := range e.Endpoints() {
		for rf := 0; rf < 2; rf++ {
			lateMean, lateStd, lateSP := e.TopEntries(rf, p)
			if lateSP[0] == noSP {
				continue
			}
			r := e.hold.ref(-1, p, new(mergeScratch), 1)
			b := r.b[rf]
			if r.q.sp[b] == noSP {
				continue
			}
			early := r.q.mean[b] - e.st.NSigma*r.q.std[b]
			if late := lateMean[0] + e.st.NSigma*lateStd[0]; early > late+1e-9 {
				t.Fatalf("pin %d rf %d: earliest arrival %v above latest %v", p, rf, early, late)
			}
		}
	}
}

func TestRefHoldSlacksFinite(t *testing.T) {
	h := holdHarness(t, 55)
	hs := h.ref.HoldSlacks()
	finite := 0
	for i, s := range hs {
		if !math.IsInf(s, 0) {
			finite++
			continue
		}
		// +Inf only for primary outputs or fully false-pathed endpoints.
		_ = i
	}
	if finite == 0 {
		t.Fatal("no hold-checked endpoints")
	}
	if h.ref.HoldWNS() > 0 || h.ref.HoldTNS() > 0 {
		t.Error("hold WNS/TNS must be <= 0")
	}
}
