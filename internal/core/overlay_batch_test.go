package core

import (
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/num"
)

// TestOverlayLargeBatchAnnotates: SetArcDelay is O(1) per row. The serving
// layer's body cap admits ~130 000 ArcECO rows, applied under the session
// mutex and the base read lock; a per-call scan of the pending list made that
// batch quadratic (7.1 s on block-1). A 100 000-arc batch — both transitions,
// 200 000 calls — must annotate in well under 100 ms, and preview bit for bit
// what the same batch gives a twin engine's full run.
func TestOverlayLargeBatchAnnotates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds block-1")
	}
	spec, err := bench.BlockSpec("block-1")
	if err != nil {
		t.Fatal(err)
	}
	tab := buildHarness(t, spec).tab
	e := newLaneEngine(t, tab, unitLane, Options{TopK: 2, Workers: 2})
	e.Run()
	twin := newLaneEngine(t, tab, unitLane, Options{TopK: 2, Workers: 1})

	const batch = 100_000
	if e.NumArcs() < batch {
		t.Fatalf("block-1 has %d arcs, want >= %d", e.NumArcs(), batch)
	}
	// The batch, row by row, into either an overlay or an engine.
	apply := func(set func(arc int32, rf int, d num.Dist)) {
		for arc := int32(0); arc < batch; arc++ {
			for rf := 0; rf < 2; rf++ {
				d := e.ArcDelay(arc, rf)
				d.Mean *= 1.1 + 0.1*float64(arc%3)
				d.Std *= 1.05
				set(arc, rf, d)
			}
		}
	}
	o := NewOverlay(e)
	annotate := func() time.Duration {
		o.Reset()
		t0 := time.Now()
		apply(o.SetArcDelay)
		return time.Since(t0)
	}
	// Best of three: a neighbour's burst on a shared host only adds time.
	best := annotate()
	for i := 0; i < 2; i++ {
		best = min(best, annotate())
	}
	t.Logf("annotate best-of-3: %v", best)
	if best > 100*time.Millisecond {
		t.Errorf("annotating %d arcs took %v, want well under 100ms", batch, best)
	}
	if got := o.Stats().TouchedArcs; got != batch {
		t.Fatalf("touched %d arcs, want %d", got, batch)
	}

	o.Propagate()
	apply(twin.SetArcDelay)
	twin.Run()
	sameSlacks(t, "100k-arc preview vs twin full run", overlaySlacks(o), engineSlacks(twin))
	if len(o.ChangedEndpointsView()) == 0 {
		t.Fatal("batch changed no endpoints — test is vacuous")
	}
}
