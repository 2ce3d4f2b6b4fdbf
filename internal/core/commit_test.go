package core

import (
	"fmt"
	"slices"
	"testing"
)

// TestCommitEqualsCold: a commit adopts its preview, and the base it leaves is
// a cold Run's over the same annotations (ExportState), bit for bit: every
// pin's late queues and, with hold on, its early ones (live entries, derived
// pins replayed), every lane's setup and hold slacks, and the critical
// startpoint and transition behind every setup slack. The first commit adopts
// a current preview; the second a preview rebased after that commit landed
// under it.
func TestCommitEqualsCold(t *testing.T) {
	h := buildHarness(t, testSpec(76))
	for _, lc := range laneCases[:2] {
		for _, hold := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/hold=%v/W%d", lc.name, hold, workers), func(t *testing.T) {
					opt := Options{TopK: 6, Hold: hold, Workers: workers, Grain: 8}
					e := newLaneEngine(t, h.tab, lc.lanes, opt)
					e.Run()
					if hold {
						e.RefreshHoldSlacks()
					}
					oA, oB := NewOverlay(e), NewOverlay(e)
					applyToOverlay(oB, perturb(e, 4, 43, 0.9, 1.0))
					applyToOverlay(oA, perturb(e, 1, 37, 1.2, 1.1))
					if len(oA.ChangedEndpointsView()) == 0 || len(oB.ChangedEndpointsView()) == 0 {
						t.Fatal("a preview changed no endpoint — test is vacuous")
					}
					oA.Commit()
					assertCommitIsCold(t, "commit of a current preview", e, lc.lanes, opt)

					oB.Rebase(e)
					oB.Propagate()
					oB.Commit()
					assertCommitIsCold(t, "commit of a rebased preview", e, lc.lanes, opt)
				})
			}
		}
	}
}

// assertCommitIsCold compares e with a cold engine run over its annotations.
func assertCommitIsCold(t *testing.T, what string, e *Engine, lanes []Scenario, opt Options) {
	t.Helper()
	cold, err := NewEngineLanes(e.ExportState(), lanes, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cold.Run()
	for p := int32(0); p < int32(e.st.NumPins); p++ {
		if !sameShown(&e.top, &cold.top, 1, p) {
			t.Fatalf("%s: pin %d: late queues differ from a cold run's", what, p)
		}
	}
	for s := range lanes {
		if !slices.Equal(e.LaneSlacks(s), cold.LaneSlacks(s)) {
			t.Fatalf("%s: lane %d: setup slacks differ from a cold run's", what, s)
		}
	}
	if !slices.Equal(e.epSP, cold.epSP) || !slices.Equal(e.epRF, cold.epRF) {
		t.Fatalf("%s: critical startpoints or transitions differ from a cold run's", what)
	}
	for i := range e.Endpoints() {
		if sp, rf := e.LaneCriticalStartpoint(0, i); sp != cold.epSP[i] || rf != int(cold.epRF[i]) {
			t.Fatalf("%s: ep %d: LaneCriticalStartpoint(0) (%d, %d) differs from a cold run's", what, i, sp, rf)
		}
	}
	if !opt.Hold {
		return
	}
	cold.RefreshHoldSlacks()
	for p := int32(0); p < int32(e.st.NumPins); p++ {
		if !sameShown(&e.hold.view, &cold.hold.view, -1, p) {
			t.Fatalf("%s: pin %d: early queues differ from a cold run's", what, p)
		}
	}
	for s := range lanes {
		if !slices.Equal(e.LaneHoldSlacks(s), cold.LaneHoldSlacks(s)) {
			t.Fatalf("%s: lane %d: hold slacks differ from a cold run's", what, s)
		}
	}
}

// TestOverlayPreviewsEarlyView: on a hold engine an overlay's wave rebuilds
// the early view next to the late one, so the preview's early view is a cold
// Run's over the same annotations, pin by pin in every lane, and its commit
// only adopts: no wave runs, the base's early queues and every lane's hold
// slacks come out a cold engine's bit for bit, and the hold slack pass
// re-evaluates exactly the endpoints whose early queues the preview moved.
func TestOverlayPreviewsEarlyView(t *testing.T) {
	h := buildHarness(t, testSpec(77))
	for _, lc := range laneCases[:2] {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", lc.name, workers), func(t *testing.T) {
				opt := Options{TopK: 6, Hold: true, Workers: workers, Grain: 8}
				e := newLaneEngine(t, h.tab, lc.lanes, opt)
				stats := e.EnableKernelStats()
				e.Run()
				e.RefreshHoldSlacks()
				before := slices.Clone(e.hold.epSlack)

				deltas := perturb(e, 2, 29, 0.6, 1.1)
				o := NewOverlay(e)
				applyToOverlay(o, deltas)
				cold := newLaneEngine(t, h.tab, lc.lanes, opt)
				applyToEngine(cold, deltas)
				cold.Run()
				cold.RefreshHoldSlacks()
				var moved int64 // endpoints whose early queues the preview moved
				for p := int32(0); p < int32(e.st.NumPins); p++ {
					if !sameShown(&o.early, &cold.hold.view, -1, p) {
						t.Fatalf("pin %d: the overlay's early queues differ from a cold run's", p)
					}
					if e.st.EpOfPin[p] >= 0 && !sameShown(&e.hold.view, &cold.hold.view, -1, p) {
						moved++
					}
				}

				waves, holds := stats.KernelLaunches(kIncremental), stats.KernelSpans(kHoldSlack)
				o.Commit()
				if n := stats.KernelLaunches(kIncremental) - waves; n != 0 {
					t.Fatalf("the commit launched %d in-place wave levels, want 0", n)
				}
				if n := stats.KernelSpans(kHoldSlack) - holds; n != moved {
					t.Fatalf("the commit evaluated %d hold slacks, want the %d endpoints whose early queues moved", n, moved)
				}
				for p := int32(0); p < int32(e.st.NumPins); p++ {
					if !sameShown(&e.hold.view, &cold.hold.view, -1, p) {
						t.Fatalf("pin %d: committed early queues differ from a cold run's", p)
					}
				}
				for s := range lc.lanes {
					if !slices.Equal(e.LaneHoldSlacks(s), cold.LaneHoldSlacks(s)) {
						t.Fatalf("lane %d: committed hold slacks differ from a cold run's", s)
					}
				}
				if slices.Equal(e.hold.epSlack, before) {
					t.Fatal("the preview moved no hold slack — test is vacuous")
				}
			})
		}
	}
}
