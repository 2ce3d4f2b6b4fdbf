package core

// Regression guard for freelist recycling in the overlay (DESIGN.md §12):
// Reset returns pin-queue storage to a freelist and a reapply hands it back
// out in map-iteration (random) order, so a pin's "previously visible"
// queues must be reseeded from the base — stale recycled content that
// happens to equal the recomputed result would otherwise stop the wavefront
// early and strand downstream endpoints on base slacks. The bug is a
// storage-assignment lottery, so the test re-runs the cycle several times.

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
