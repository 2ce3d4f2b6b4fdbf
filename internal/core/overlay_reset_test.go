package core

// Regression guard for row recycling in the overlay (DESIGN.md §8): after a
// Reset a reapply lands on rows that hold the previous preview — of the same
// deltas, so often exactly the queues about to be computed. What a pin
// "showed before" must be the base's row, never the recycled row's content:
// stale bytes that equal the recomputed result would otherwise stop the
// wavefront early and strand downstream endpoints on base slacks. When each
// pin's storage was drawn from a freelist in map order this was a lottery, so
// the test re-runs the cycle several times.

import "testing"

func TestOverlayResetReapplyMatches(t *testing.T) {
	h := buildHarness(t, testSpec(83))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2})
			e.Run()

			deltas := perturb(e, 2, 31, 1.3, 1.1)
			o := NewOverlay(e)
			applyToOverlay(o, deltas)
			want := overlaySlacks(o)
			changed := len(o.ChangedEndpoints())
			if changed == 0 {
				t.Fatal("perturbation changed no endpoints — test is vacuous")
			}

			for it := 0; it < 5; it++ {
				o.Reset()
				applyToOverlay(o, deltas)
				if got := len(o.ChangedEndpoints()); got != changed {
					t.Fatalf("iter %d: %d changed endpoints != first apply's %d", it, got, changed)
				}
				sameSlacks(t, "reapply vs first apply", overlaySlacks(o), want)
			}
		})
	}
}
