package core

// Regression guard for row recycling in the overlay (DESIGN.md §8): after a
// Reset a reapply lands on rows that hold the previous preview — of the same
// deltas, so often exactly the queues about to be computed. What a pin
// "showed before" must be the base's row, never the recycled row's content:
// stale bytes that equal the recomputed result would otherwise stop the
// wavefront early and strand downstream endpoints on base slacks. When each
// pin's storage was drawn from a freelist in map order this was a lottery, so
// the test re-runs the cycle several times.

import (
	"testing"

	"insta/internal/num"
)

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
			changed := len(o.ChangedEndpointsView())
			if changed == 0 {
				t.Fatal("perturbation changed no endpoints — test is vacuous")
			}

			for it := 0; it < 5; it++ {
				o.Reset()
				applyToOverlay(o, deltas)
				if got := len(o.ChangedEndpointsView()); got != changed {
					t.Fatalf("iter %d: %d changed endpoints != first apply's %d", it, got, changed)
				}
				sameSlacks(t, "reapply vs first apply", overlaySlacks(o), want)
			}
		})
	}
}

// TestOverlayIndexReturnsClean: an overlay's arc bits live in its index,
// which goes with it to its base engine's pool on Release, and a bit left set
// there would send the next session over that engine to its arc map for an
// arc it never annotated. Release after a Reset and Release holding deltas
// must both leave the index all zero; a Rebase onto another engine keeps it,
// with no pin or endpoint entry and a bit for exactly the arcs it holds, and
// the rebased overlay must still see its deltas through it.
func TestOverlayIndexReturnsClean(t *testing.T) {
	h := buildHarness(t, testSpec(83))
	e := newLaneEngine(t, h.tab, unitLane, Options{TopK: 6, Workers: 1})
	e.Run()
	other := newLaneEngine(t, h.tab, unitLane, Options{TopK: 6, Workers: 1})
	other.Run()
	clean := func(what string, ix *shadowIndex, arcs map[int32][2]num.Dist) {
		t.Helper()
		for i, w := range ix.arc {
			for b := 0; b < 64; b++ {
				_, held := arcs[int32(i<<6+b)]
				if set := w&(1<<b) != 0; set != held {
					t.Fatalf("%s: arc %d's bit is %v, the overlay holds it: %v", what, i<<6+b, set, held)
				}
			}
		}
		for i := range ix.pin {
			if ix.pin[i] != 0 {
				t.Fatalf("%s: index has pin %d set", what, i)
			}
		}
		for i := range ix.ep {
			if ix.ep[i] != 0 {
				t.Fatalf("%s: index has endpoint %d set", what, i)
			}
		}
	}
	deltas := perturb(e, 3, 17, 1.4, 1.2)

	o := NewOverlay(e)
	applyToOverlay(o, deltas)
	want := overlaySlacks(o)
	o.Rebase(other)
	clean("Rebase onto another engine", o.ix, deltas)
	o.Propagate()
	sameSlacks(t, "rebased onto an equal engine", overlaySlacks(o), want)
	for arc, d := range deltas {
		if got := o.ArcDelay(arc, 1); got != d[1] {
			t.Fatalf("rebased overlay reads arc %d as %v, annotated %v", arc, got, d[1])
		}
	}
	ix := o.ix
	o.Release()
	clean("Release holding deltas", ix, nil)

	o = NewOverlay(e)
	applyToOverlay(o, deltas)
	o.Reset()
	ix = o.ix
	o.Release()
	clean("Release after Reset", ix, nil)
}
