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

// TestOverlayIndexReturnsClean: an overlay's arc bits live in the index it
// takes from its base engine's pool, and a bit left set there would send the
// next overlay over that engine to its arc map for an arc it never annotated.
// Every way an index goes back — Rebase onto another engine, Release after a
// Reset, Release holding deltas — must hand it back all zero, and a rebased
// overlay must still see its deltas through the index it takes instead.
func TestOverlayIndexReturnsClean(t *testing.T) {
	h := buildHarness(t, testSpec(83))
	e := newLaneEngine(t, h.tab, unitLane, Options{TopK: 6, Workers: 1})
	e.Run()
	other := newLaneEngine(t, h.tab, unitLane, Options{TopK: 6, Workers: 1})
	other.Run()
	clean := func(what string, e *Engine) {
		t.Helper()
		ix := e.takeIndex()
		defer e.indexPool.Put(ix)
		for i, w := range ix.arc {
			if w != 0 {
				t.Fatalf("%s: pooled index has arc bits %#x at word %d", what, w, i)
			}
		}
		for i := range ix.pin {
			if ix.pin[i] != 0 {
				t.Fatalf("%s: pooled index has pin %d set", what, i)
			}
		}
	}
	deltas := perturb(e, 3, 17, 1.4, 1.2)

	o := NewOverlay(e)
	applyToOverlay(o, deltas)
	want := overlaySlacks(o)
	o.Rebase(other)
	clean("Rebase onto another engine", e)
	o.Propagate()
	sameSlacks(t, "rebased onto an equal engine", overlaySlacks(o), want)
	for arc, d := range deltas {
		if got := o.ArcDelay(arc, 1); got != d[1] {
			t.Fatalf("rebased overlay reads arc %d as %v, annotated %v", arc, got, d[1])
		}
	}
	o.Release()
	clean("Release holding deltas", other)

	o = NewOverlay(e)
	applyToOverlay(o, deltas)
	o.Reset()
	o.Release()
	clean("Release after Reset", e)
}
