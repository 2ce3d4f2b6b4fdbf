//go:build !race

package core

// The one allocation count that is about sync.Pool, which the race detector
// randomises (Put drops a quarter of its arguments): what a new session's
// first large preview allocates once an earlier session has handed its rows
// back. Everything that must hold under -race too — the reset-and-reapply
// paths at zero — is in alloc_test.go and scratch_test.go.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/num"
	"insta/internal/refsta"
)

// TestFreshPreviewAllocBudget is a count, not a timing: on the serving shape
// (block-5, {ss,tt,ff}, K = 8, one worker) a new overlay's first 512-arc
// preview — the benchmark's large ECO, a cone of half the design — allocates
// at most 1 500 objects and 2 MB. With a heap object and a seeding copy per
// cone pin it was 47 622 objects and 17.8 MB; what is left is the wave's own
// buckets and queued-pin set and the overlay's bookkeeping slices, sized by
// the cone, not one per pin.
func TestFreshPreviewAllocBudget(t *testing.T) {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := newLaneEngine(t, circuitops.Extract(ref), laneCases[1].lanes, Options{TopK: 8, Workers: 1})
	e.Run()

	const arcs = 512
	nArcs := e.NumArcs()
	preview := func() *Overlay {
		o := NewOverlay(e)
		for j := 0; j < arcs; j++ {
			arc := int32(j * (nArcs / arcs))
			for rf := 0; rf < 2; rf++ {
				d := e.ArcDelay(arc, rf)
				o.SetArcDelay(arc, rf, num.Dist{Mean: d.Mean * 1.02, Std: d.Std})
			}
		}
		o.Propagate()
		return o
	}
	// Two collections empty a sync.Pool; none may run between the warm-up's
	// Release and the measured preview.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm := preview()
	if pins := warm.Stats().OverlayPins; pins < e.NumPins()/3 {
		t.Fatalf("the preview's cone is %d of %d pins — not the large ECO this budget is for", pins, e.NumPins())
	}
	warm.Release()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := preview()
	runtime.ReadMemStats(&after)
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("fresh %d-arc preview over %d pins: %d objects, %d bytes", arcs, o.Stats().OverlayPins, objects, bytes)
	if objects > 1500 || bytes > 2<<20 {
		t.Errorf("fresh preview allocated %d objects / %d bytes, budget 1500 / %d", objects, bytes, 2<<20)
	}
	o.Release()
}
