package core

// The merge scratch (spindex.go): the startpoint index survives its epoch
// wrapping, and the sets are the engine's — borrowed by a sweep or wave,
// never owned by an overlay — however many overlays exist or run at once.

import (
	"math"
	"sync"
	"testing"
)

// TestSPIndexEpochWrap merges multi-parent pins across the 32-bit epoch's wrap
// and holds each to the reference. The table starts full of entries from
// "the first time around" — every startpoint at slot 0 under epoch 1, the
// epoch the wrap restarts at — which must all have been scrubbed by then.
func TestSPIndexEpochWrap(t *testing.T) {
	const k = 8
	pins, _ := fanin(17, 6, k)
	ix := &spIndex{at: make([]uint64, faninSPs), epoch: math.MaxUint32 - 1}
	for sp := range ix.at {
		ix.at[sp] = 1 << slotBits
	}
	for pi := range pins {
		got, want := newQueues(k), newRefQueue(k)
		pins[pi].merge(&got, k, ix) // one load, so one epoch, per pin
		pins[pi].refMerge(want, k)
		if err := want.diff(&got, 0, 1, testNS); err != nil {
			t.Fatalf("pin %d (epoch %d after it): merge diverged from the reference: %v", pi, ix.epoch, err)
		}
	}
	if want := uint32(len(pins) - 1); ix.epoch != want {
		t.Fatalf("epoch %d after %d loads from one short of the wrap, want %d", ix.epoch, len(pins), want)
	}
}

// scratchSets returns how many merge scratch sets e's free list holds.
func scratchSets(e *Engine) int {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	return len(e.scratchFree)
}

// TestOverlaysOwnNoMergeScratch: a hundred overlays over one base, previewed
// one after another, leave the engine with the one set its own passes use —
// scratch memory follows concurrent waves, not sessions.
func TestOverlaysOwnNoMergeScratch(t *testing.T) {
	h := buildHarness(t, testSpec(87))
	e := newLaneEngine(t, h.tab, unitLane, Options{TopK: 6, Workers: 2})
	e.Run()
	deltas := perturb(e, 3, 37, 1.2, 1.1)
	for i := 0; i < 100; i++ {
		o := NewOverlay(e)
		applyToOverlay(o, deltas)
		if o.Stats().OverlayPins == 0 {
			t.Fatal("overlay preview recomputed no pin — test is vacuous")
		}
		if o.scratch.scratch != nil {
			t.Fatalf("overlay %d kept its wave's merge scratch", i)
		}
	}
	if n := scratchSets(e); n != 1 {
		t.Fatalf("%d merge scratch sets after 100 sequential previews, want 1", n)
	}
}

// TestOverlaysBorrowScratchConcurrently: eight overlays over one {ss,tt,ff}
// base preview different deltas at once on a two-worker pool (inline launches
// all run as participant 0, concurrently — a shared set would race), each
// bit-identical to the same preview run alone; afterwards the engine holds at
// most one set per overlay, and a further, sequential preview allocates
// nothing whichever set it is handed. Runs under -race in ci.sh step 4.
func TestOverlaysBorrowScratchConcurrently(t *testing.T) {
	h := buildHarness(t, testSpec(88))
	e := newLaneEngine(t, h.tab, laneCases[1].lanes, Options{TopK: 6, Workers: 2})
	e.Run()
	const sessions = 8
	want := make([][][]float64, sessions)
	for i := range want {
		o := NewOverlay(e)
		applyToOverlay(o, perturb(e, int32(2+i), 31, 1.3, 1.15))
		if len(o.ChangedEndpointsView()) == 0 {
			t.Fatalf("session %d changed no endpoint — test is vacuous", i)
		}
		want[i] = overlaySlacks(o)
	}

	got := make([][][]float64, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := NewOverlay(e)
			deltas := perturb(e, int32(2+i), 31, 1.3, 1.15)
			for round := 0; round < 4; round++ {
				o.Reset()
				applyToOverlay(o, deltas)
			}
			got[i] = overlaySlacks(o)
		}(i)
	}
	wg.Wait()
	for i := range want {
		sameSlacks(t, "concurrent vs sequential preview", got[i], want[i])
	}
	if n := scratchSets(e); n < 1 || n > sessions {
		t.Fatalf("%d merge scratch sets after %d concurrent overlays, want 1..%d", n, sessions, sessions)
	}

	ninth := NewOverlay(e)
	deltas := perturb(e, 5, 29, 0.8, 0.9)
	preview := func() {
		ninth.Reset()
		applyToOverlay(ninth, deltas)
	}
	preview() // warm the overlay's own maps and freelists
	if a := testing.AllocsPerRun(20, preview); a > allocEps {
		t.Errorf("preview after the concurrent run: %.1f allocs/op, want 0", a)
	}
}
