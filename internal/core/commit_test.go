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
		if sp, rf := e.CriticalStartpoint(i); sp != cold.epSP[i] || rf != int(cold.epRF[i]) {
			t.Fatalf("%s: ep %d: CriticalStartpoint (%d, %d) differs from a cold run's", what, i, sp, rf)
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
