package core

import (
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/num"
)

// laneCases are the lane sets the overlay, reset and allocation suites run
// over: the paper's single corner, a slow/typical/fast derate trio that makes
// every queue block, snapshot and slack slot S-strided, and 17 lanes — more
// than any stack-sized structure could hold a counter for, so whatever a merge
// carries per lane has to work at any lane count.
var laneCases = []struct {
	name  string
	lanes []Scenario
}{
	{"S1", unitLane},
	{"S3", []Scenario{
		{DelayScale: 1.18, RCScale: 1.10, SigmaScale: 1.25},
		{DelayScale: 1, RCScale: 1, SigmaScale: 1},
		{DelayScale: 0.86, RCScale: 0.92, SigmaScale: 0.90},
	}},
	{"S17", spreadLanes(17)},
}

// spreadLanes returns n distinct derate lanes stepping from slow to fast.
func spreadLanes(n int) []Scenario {
	lanes := make([]Scenario, n)
	for s := range lanes {
		f := float64(s) / float64(n)
		lanes[s] = Scenario{DelayScale: 1.2 - 0.4*f, RCScale: 1.1 - 0.2*f, SigmaScale: 1.3 - 0.5*f}
	}
	return lanes
}

// newLaneEngine compiles tab and stands up an engine over the given lanes,
// closed with the test.
func newLaneEngine(t *testing.T, tab *circuitops.Tables, lanes []Scenario, opt Options) *Engine {
	t.Helper()
	st, err := Compile(tab)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineLanes(st, lanes, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// overlaySlacks snapshots every lane's slacks as seen through o.
func overlaySlacks(o *Overlay) [][]float64 {
	e := o.e
	out := make([][]float64, e.Lanes())
	for s := range out {
		out[s] = make([]float64, len(e.Endpoints()))
		for i := range out[s] {
			out[s][i] = o.LaneSlack(s, int32(i))
		}
	}
	return out
}

// engineSlacks copies every lane's committed slacks.
func engineSlacks(e *Engine) [][]float64 {
	out := make([][]float64, e.Lanes())
	for s := range out {
		out[s] = append([]float64(nil), e.LaneSlacks(s)...)
	}
	return out
}

// sameSlacks fails the test at the first (lane, endpoint) where got != want.
func sameSlacks(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for s := range want {
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("%s: lane %d ep %d: %v != %v", what, s, i, got[s][i], want[s][i])
			}
		}
	}
}

// perturb returns a deterministic scattered arc-delay changelist: every
// stride-th arc gets its mean and sigma scaled.
func perturb(e *Engine, start, stride int32, meanScale, stdScale float64) map[int32][2]num.Dist {
	out := make(map[int32][2]num.Dist)
	for arc := start; arc < int32(e.NumArcs()); arc += stride {
		var d [2]num.Dist
		for rf := 0; rf < 2; rf++ {
			d[rf] = e.ArcDelay(arc, rf)
			d[rf].Mean *= meanScale
			d[rf].Std *= stdScale
		}
		out[arc] = d
	}
	return out
}

func applyToOverlay(o *Overlay, deltas map[int32][2]num.Dist) {
	for arc, d := range deltas {
		for rf := 0; rf < 2; rf++ {
			o.SetArcDelay(arc, rf, d[rf])
		}
	}
	o.Propagate()
}

func applyToEngine(e *Engine, deltas map[int32][2]num.Dist) {
	for arc, d := range deltas {
		for rf := 0; rf < 2; rf++ {
			e.SetArcDelay(arc, rf, d[rf])
		}
	}
}

// TestOverlayMatchesFreshFull: an overlay evaluation over a frozen base must
// be bit-identical, at every endpoint, to a from-scratch full propagation of
// a twin engine carrying the same annotations.
func TestOverlayMatchesFreshFull(t *testing.T) {
	h := buildHarness(t, testSpec(71))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2, Grain: 8})
			e.Run()
			base := engineSlacks(e)
			twin := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 1})

			deltas := perturb(e, 3, 41, 1.25, 1.1)
			orig := make(map[int32]num.Dist, len(deltas))
			for arc := range deltas {
				orig[arc] = e.ArcDelay(arc, 0)
			}
			o := NewOverlay(e)
			applyToOverlay(o, deltas)
			applyToEngine(twin, deltas)
			twin.Run()

			sameSlacks(t, "overlay vs fresh full", overlaySlacks(o), engineSlacks(twin))
			for s := range lc.lanes {
				if w, tn := WNS(twin.LaneSlacks(s)), TNS(twin.LaneSlacks(s)); o.LaneWNS(s) != w || o.LaneTNS(s) != tn {
					t.Fatalf("lane %d: overlay WNS/TNS %v/%v != fresh %v/%v", s, o.LaneWNS(s), o.LaneTNS(s), w, tn)
				}
			}
			if len(o.ChangedEndpointsView()) == 0 {
				t.Fatal("perturbation changed no endpoints — test is vacuous")
			}
			// The base engine must be untouched by the overlay evaluation.
			sameSlacks(t, "base after overlay evaluation", engineSlacks(e), base)
			for arc, d := range orig {
				if e.ArcDelay(arc, 0) != d {
					t.Fatalf("arc %d: base annotation mutated", arc)
				}
			}
		})
	}
}

// TestOverlayCommitMatchesPreview: committing folds the deltas into the base
// with exactly the previewed result.
func TestOverlayCommitMatchesPreview(t *testing.T) {
	h := buildHarness(t, testSpec(72))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 8, Hold: true, Workers: 2})
			e.Run()

			deltas := perturb(e, 1, 53, 0.8, 1.0)
			e.RefreshHoldSlacks()
			holdBefore := append([]float64(nil), e.LaneHoldSlacks(0)...)
			o := NewOverlay(e)
			applyToOverlay(o, deltas)
			preview := overlaySlacks(o)
			pWNS, pTNS := o.WNS(), o.TNS()

			o.Commit()
			sameSlacks(t, "committed vs previewed", engineSlacks(e), preview)
			if e.WNS() != pWNS || e.TNS() != pTNS {
				t.Fatalf("committed WNS/TNS %v/%v != previewed %v/%v", e.WNS(), e.TNS(), pWNS, pTNS)
			}
			if st := o.Stats(); st.TouchedArcs != 0 || st.OverlayPins != 0 || st.ChangedEPs != 0 {
				t.Fatalf("overlay not reset after commit: %+v", st)
			}

			// Hold rides through the commit: the preview's wave rebuilt the
			// early view over the same cone and the commit adopts it, so the
			// early queues and every lane's hold slacks are a cold engine's
			// over the same annotations.
			cold := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 8, Hold: true, Workers: 1})
			applyToEngine(cold, deltas)
			cold.Run()
			cold.RefreshHoldSlacks()
			for s := range lc.lanes {
				if !slices.Equal(e.LaneHoldSlacks(s), cold.LaneHoldSlacks(s)) {
					t.Fatalf("lane %d: committed hold slacks differ from a cold engine's", s)
				}
			}
			if slices.Equal(e.LaneHoldSlacks(0), holdBefore) {
				t.Fatal("commit moved no hold slack — test is vacuous")
			}
			for p := int32(0); p < int32(e.st.NumPins); p++ {
				if !sameShown(&e.hold.view, &cold.hold.view, -1, p) {
					t.Fatalf("pin %d: committed early queues differ from a cold engine's", p)
				}
			}
		})
	}
}

// TestOverlayNeverFullPropagates: session evaluations must run only the
// cone-limited overlay kernels — the full forward kernel's span count stays
// frozen after initialization (the ISSUE acceptance criterion, checked here
// on the same design family and in the server tests on a block preset).
func TestOverlayNeverFullPropagates(t *testing.T) {
	h := buildHarness(t, testSpec(73))
	e, err := NewEngine(h.tab, Options{TopK: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats := e.EnableKernelStats()
	e.Run()
	fwdAfterInit := stats.KernelSpans(KernelForward)

	o := NewOverlay(e)
	applyToOverlay(o, perturb(e, 2, 67, 1.3, 1.2))
	o.Reset()
	applyToOverlay(o, perturb(e, 5, 71, 1.1, 1.0))
	o.Commit()

	if got := stats.KernelSpans(KernelForward); got != fwdAfterInit {
		t.Fatalf("overlay/commit triggered full forward propagate: spans %d -> %d", fwdAfterInit, got)
	}
	if stats.KernelSpans(KernelOverlay) == 0 {
		t.Fatal("no overlay kernel spans recorded")
	}
	// Cone-limited: both overlay evaluations together must touch fewer spans
	// than a single full propagate would.
	if ov := stats.KernelSpans(KernelOverlay); ov >= fwdAfterInit {
		t.Fatalf("overlay spans %d not cone-limited vs one full propagate %d", ov, fwdAfterInit)
	}
}

// TestOverlayRebase: after another writer commits under a session, Rebase +
// Propagate must re-derive the session's view against the new base, matching
// sequential application of both changelists.
func TestOverlayRebase(t *testing.T) {
	h := buildHarness(t, testSpec(74))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2})
			e.Run()

			dA := perturb(e, 1, 37, 1.2, 1.1) // session A: commits first
			dB := perturb(e, 4, 43, 0.9, 1.0) // session B: rebases over A

			oA, oB := NewOverlay(e), NewOverlay(e)
			applyToOverlay(oB, dB) // B evaluates against the pre-commit base
			applyToOverlay(oA, dA)
			oA.Commit()

			oB.Rebase(e)
			oB.Propagate()

			twin := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 1})
			applyToEngine(twin, dA)
			applyToEngine(twin, dB)
			twin.Run()
			want := engineSlacks(twin)
			sameSlacks(t, "rebased overlay vs sequential", overlaySlacks(oB), want)

			// And B's commit lands the sequential state in the base.
			oB.Commit()
			sameSlacks(t, "rebase+commit vs sequential", engineSlacks(e), want)
		})
	}
}

// TestOverlayReset: rollback restores the base view bit-exactly.
func TestOverlayReset(t *testing.T) {
	h := buildHarness(t, testSpec(75))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 4, Workers: 1})
			e.Run()

			o := NewOverlay(e)
			applyToOverlay(o, perturb(e, 0, 29, 1.5, 1.3))
			o.Reset()
			sameSlacks(t, "overlay after reset vs base", overlaySlacks(o), engineSlacks(e))
			if st := o.Stats(); st.TouchedArcs != 0 || st.OverlayPins != 0 {
				t.Fatalf("reset left overlay state: %+v", st)
			}
		})
	}
}

// TestOverlayEstimateECOPath drives the overlay through the reference
// engine's estimate_eco deltas — the serving layer's actual input — and
// cross-checks against a fresh full propagation.
func TestOverlayEstimateECOPath(t *testing.T) {
	h := buildHarness(t, testSpec(76))
	e, err := NewEngine(h.tab, Options{TopK: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	twin, err := NewEngine(h.tab, Options{TopK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	o := NewOverlay(e)
	cl := bench.Changelist(h.b, 9, 8)
	for _, r := range cl {
		deltas, err := h.ref.EstimateECO(r.Cell, r.NewLib)
		if err != nil {
			continue
		}
		for _, dl := range deltas {
			for rf := 0; rf < 2; rf++ {
				o.SetArcDelay(dl.ArcID, rf, dl.Delay[rf])
				twin.SetArcDelay(dl.ArcID, rf, dl.Delay[rf])
			}
		}
	}
	o.Propagate()
	want := twin.Run()
	for i := range want {
		if got := o.LaneSlack(0, int32(i)); got != want[i] {
			t.Fatalf("ep %d: estimate_eco overlay %v != fresh %v", i, got, want[i])
		}
	}
}
