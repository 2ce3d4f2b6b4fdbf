package core

// An overlay's shadow rows (DESIGN.md §8): a cone pin is rebuilt into a row
// that still holds whatever its last user left there, and compared with the
// row it showed before. These tests pin what that must never cost — a
// recycled row's old bytes leaking into an answer or stopping a wavefront, a
// previous row that is never recycled — and that rows, chunks and indices can
// go round between overlays over one base while others preview.

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"insta/internal/num"
)

// sameOverlayQueues fails the test at the first pin whose queues, as seen
// through o, differ in a live entry from the committed queues of want.
func sameOverlayQueues(t *testing.T, what string, o *Overlay, want *Engine) {
	t.Helper()
	e := o.e
	for rf := 0; rf < 2; rf++ {
		for p := int32(0); p < int32(e.numPins); p++ {
			q, b := o.queues(rf, p)
			if !sameLive(q, b, want.top.q, want.base(rf, p), e.qstride, 1, e.nSigma) {
				t.Fatalf("%s: rf %d pin %d: queues through the overlay differ from the committed ones", what, rf, p)
			}
		}
	}
}

// samePreview holds o's whole view — every lane's slacks, the changed
// endpoint set and every pin's live entries — to a fresh overlay's preview of
// the same deltas and to those deltas committed on a cold engine.
func samePreview(t *testing.T, what string, o, fresh *Overlay, cold *Engine) {
	t.Helper()
	sameSlacks(t, what+" vs a fresh overlay", overlaySlacks(o), overlaySlacks(fresh))
	sameSlacks(t, what+" vs the commit", overlaySlacks(o), engineSlacks(cold))
	if !slices.Equal(o.ChangedEndpointsView(), fresh.ChangedEndpointsView()) {
		t.Fatalf("%s: changed endpoints %v, a fresh overlay's %v", what, o.ChangedEndpointsView(), fresh.ChangedEndpointsView())
	}
	if got, want := o.Stats(), fresh.Stats(); got != want {
		t.Fatalf("%s: footprint %+v, a fresh overlay's %+v", what, got, want)
	}
	sameOverlayQueues(t, what, o, cold)
}

// TestPreviewOnDirtyRows: a preview that lands on rows another preview filled
// — the overlay's own after a Reset, or another overlay's by way of the base
// engine's pool — is the preview a fresh overlay gives and what a commit
// leaves. The failure this pins is stale storage standing in for what a pin
// showed before: bytes that happen to match the recomputed queues stop a
// wavefront early and strand everything downstream on base values.
func TestPreviewOnDirtyRows(t *testing.T) {
	h := buildHarness(t, testSpec(91))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2, Grain: 8})
			e.Run()
			dA := perturb(e, 1, 7, 1.3, 1.2)
			dB := perturb(e, 4, 43, 0.85, 1.1) // sparse: its cone is a part of A's

			fresh := NewOverlay(e)
			applyToOverlay(fresh, dB)
			if len(fresh.ChangedEndpointsView()) == 0 {
				t.Fatal("perturbation changed no endpoints — test is vacuous")
			}
			cold := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 1})
			applyToEngine(cold, dB)
			cold.Run()

			own := NewOverlay(e)
			applyToOverlay(own, dA)
			if own.Stats().OverlayPins <= chunkRows {
				t.Fatalf("the first preview shadowed %d pins, not more than one chunk", own.Stats().OverlayPins)
			}
			own.Reset()
			applyToOverlay(own, dB)
			samePreview(t, "after a Reset", own, fresh, cold)
			// Once more, every pin handed back the row that already holds the
			// result it is about to compute; and once over the worst a row can
			// hold: every slot live-looking, every plane unequal to anything.
			own.Reset()
			applyToOverlay(own, dB)
			samePreview(t, "on rows holding the same preview", own, fresh, cold)
			own.Reset()
			for _, c := range own.chunks {
				for i := range c.sp {
					c.mean[i], c.std[i], c.sp[i] = math.NaN(), math.NaN(), 0
				}
			}
			applyToOverlay(own, dB)
			samePreview(t, "on poisoned rows", own, fresh, cold)

			// Through the pool: under the race detector Put drops a quarter of
			// what it is given and a Get may miss, so go round until the
			// preview has run on a chunk the other overlay filled.
			reused := false
			for try := 0; try < 20 && !reused; try++ {
				donor := NewOverlay(e)
				applyToOverlay(donor, dA)
				released := slices.Clone(donor.chunks)
				donor.Release()
				if kept := donor.chunks[:cap(donor.chunks)]; slices.ContainsFunc(kept, func(c *queues) bool { return c != nil }) {
					t.Fatal("a released overlay still references its chunks")
				}
				heir := NewOverlay(e)
				applyToOverlay(heir, dB)
				samePreview(t, "on another overlay's released chunks", heir, fresh, cold)
				reused = slices.ContainsFunc(heir.chunks, func(c *queues) bool { return slices.Contains(released, c) })
				heir.Release()
			}
			if !reused {
				t.Fatal("no preview ran on a released chunk — test is vacuous")
			}
		})
	}
}

// TestOverlappingPreviews: a second batch whose cone overlaps the first's
// re-touches pins that already have a shadow row. Each gets a fresh one and is
// compared with the old, which is then recycled: the result is both batches
// applied at once, and rows in use never exceed the shadowed pins.
func TestOverlappingPreviews(t *testing.T) {
	h := buildHarness(t, testSpec(92))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2, Grain: 8})
			e.Run()
			dA := perturb(e, 2, 13, 1.25, 1.1)
			dB := perturb(e, 5, 17, 0.9, 1.2)
			// A few arcs are in both, re-annotated by the second batch.
			for arc, d := range perturb(e, 2, 13*4, 1.1, 1.0) {
				dB[arc] = d
			}
			both := maps.Clone(dA)
			maps.Copy(both, dB)

			noLeak := func(o *Overlay, when string) {
				t.Helper()
				if got, want := o.rowsInUse(), o.Stats().OverlayPins; got != want {
					t.Fatalf("%s: %d rows in use for %d shadowed pins", when, got, want)
				}
			}
			o := NewOverlay(e)
			applyToOverlay(o, dA)
			noLeak(o, "after the first batch")
			pinsA := o.Stats().OverlayPins
			applyToOverlay(o, dB)
			noLeak(o, "after the second batch")

			alone := NewOverlay(e)
			applyToOverlay(alone, dB)
			if pinsA+alone.Stats().OverlayPins <= o.Stats().OverlayPins {
				t.Fatal("the two cones do not overlap — test is vacuous")
			}

			fresh := NewOverlay(e)
			applyToOverlay(fresh, both)
			cold := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 1})
			applyToEngine(cold, both)
			cold.Run()
			sameSlacks(t, "A then B vs A ∪ B at once", overlaySlacks(o), overlaySlacks(fresh))
			sameSlacks(t, "A then B vs the commit", overlaySlacks(o), engineSlacks(cold))
			sameOverlayQueues(t, "A then B", o, cold)

			// A rebase re-derives the same cone over rows it has just freed.
			o.Rebase()
			o.Propagate()
			noLeak(o, "after a rebase")
			samePreview(t, "rebased", o, fresh, cold)
			if o.Reset(); o.rowsInUse() != 0 || e.overlayRows.Load() != int64(alone.rowsInUse()+fresh.rowsInUse()) {
				t.Fatalf("after Reset: %d rows in use, engine counts %d over two other live overlays", o.rowsInUse(), e.overlayRows.Load())
			}
		})
	}
}

// TestEqualLive: two rows are the same queues when every slot names the same
// startpoint and every live slot holds the same (mean, sigma); what an empty
// slot's planes hold is storage history. Checked in both layouts the wave
// compares: an in-place wave's snapshot against a dense tensor row, and an
// overlay's shadow row against one.
func TestEqualLive(t *testing.T) {
	const k = 4
	type row struct {
		mean, std [k]float64
		sp        [k]int32
	}
	base := row{
		mean: [k]float64{90, 80, 70, 1e9},
		std:  [k]float64{3, 2, 1, -7},
		sp:   [k]int32{5, 2, 9, noSP},
	}
	flipBit := func(f float64) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1) }
	for _, tc := range []struct {
		name string
		edit func(r *row)
		same bool
	}{
		{"identical", func(*row) {}, true},
		{"dead planes differ", func(r *row) { r.mean[3], r.std[3] = -1, 42 }, true},
		{"a live sigma bit flipped", func(r *row) { r.std[1] = flipBit(r.std[1]) }, false},
		{"a live mean bit flipped", func(r *row) { r.mean[2] = flipBit(r.mean[2]) }, false},
		{"a live startpoint differs", func(r *row) { r.sp[0] = 6 }, false},
		{"live counts 3 and 4", func(r *row) { r.sp[3] = 7 }, false},
		{"live counts 3 and 2", func(r *row) { r.sp[2] = noSP }, false},
	} {
		other := base
		tc.edit(&other)
		put := func(q *queues, at int, r *row) {
			copy(q.mean[at:], r.mean[:])
			copy(q.std[at:], r.std[:])
			copy(q.sp[at:], r.sp[:])
		}
		e := &Engine{qstride: k}
		dense := newQueues(8 * k)
		put(&dense, 5*k, &base)
		snap := newQueues(2 * k) // a wave snapshot: rf 0 at 0, rf 1 at qstride
		put(&snap, k, &other)
		v := view{e: e, chunks: []*queues{new(queues), new(queues)}}
		*v.chunks[1] = newQueues(chunkRows * 2 * k)
		cq, cb := v.shadow(1, 1+chunkRows+3) // second chunk, fourth row, rf 1
		put(cq, cb, &other)
		for _, side := range []struct {
			what string
			q    *queues
			at   int
		}{{"snapshot", &snap, k}, {"shadow row", cq, cb}} {
			if got := side.q.equalLive(side.at, &dense, 5*k, k); got != tc.same {
				t.Errorf("%s, %s against a dense row: equalLive = %v, want %v", tc.name, side.what, got, tc.same)
			}
			if got := dense.equalLive(5*k, side.q, side.at, k); got != tc.same {
				t.Errorf("%s, a dense row against the %s: equalLive = %v, want %v", tc.name, side.what, got, tc.same)
			}
		}
	}
}

// TestOverlaysShareChunkPool: eight goroutines each loop create → preview →
// Release over one {ss,tt,ff} base on a two-worker pool, so chunks and indices
// change hands through the engine's pools the whole time, while a ninth
// overlay resets and re-applies on storage it keeps. Every preview is
// bit-identical to the same preview run alone. Runs under -race in ci.sh
// step 4.
func TestOverlaysShareChunkPool(t *testing.T) {
	h := buildHarness(t, testSpec(93))
	e := newLaneEngine(t, h.tab, laneCases[1].lanes, Options{TopK: 6, Workers: 2})
	e.Run()
	const sessions = 8
	deltas := make([]map[int32][2]num.Dist, sessions+1)
	want := make([][][]float64, sessions+1)
	for i := range deltas {
		deltas[i] = perturb(e, int32(1+i), int32(11+2*i), 1.3, 1.15)
		o := NewOverlay(e)
		applyToOverlay(o, deltas[i])
		if len(o.ChangedEndpointsView()) == 0 {
			t.Fatalf("session %d changed no endpoint — test is vacuous", i)
		}
		want[i] = overlaySlacks(o)
		o.Release()
	}

	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	check := func(i int, o *Overlay) {
		got := overlaySlacks(o)
		for s := range want[i] {
			if !slices.Equal(got[s], want[i][s]) {
				t.Errorf("session %d lane %d: concurrent preview differs from the same preview run alone", i, s)
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Every other round previews a neighbour's deltas first, so
				// the cone a session lands on is not the one it released.
				o := NewOverlay(e)
				if r%2 == 1 {
					applyToOverlay(o, deltas[(i+1)%sessions])
					o.Reset()
				}
				applyToOverlay(o, deltas[i])
				check(i, o)
				o.Release()
			}
		}()
	}
	keeper := NewOverlay(e)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			keeper.Reset()
			applyToOverlay(keeper, deltas[sessions])
			check(sessions, keeper)
		}
	}()
	wg.Wait()
	if got, want := e.overlayRows.Load(), int64(keeper.rowsInUse()); got != want || want == 0 {
		t.Fatalf("engine counts %d rows in use, the one live overlay holds %d", got, want)
	}
}

// TestOverlayFollowsStructuralReseeds: an overlay re-targeted at a reseeded
// engine takes indices of the new engine's size — also when that is the same
// engine, grown in place, whose pool still holds the index the overlay gave
// back at the old size — and keeps its row chunks. Its deltas, kept on the ids
// they were recorded on, preview what a cold engine over the edited state
// computes.
func TestOverlayFollowsStructuralReseeds(t *testing.T) {
	h := buildHarness(t, testSpec(94))
	opt := Options{TopK: 6, Hold: true, Workers: 2, Grain: 8}
	lanes := laneCases[1].lanes
	e := newLaneEngine(t, h.tab, lanes, opt)
	e.Run()
	o := NewOverlay(e)
	applyToOverlay(o, perturb(e, 3, 19, 1.3, 1.2))

	tab, cur := h.tab, e
	for _, inPlace := range []bool{false, true} {
		edited, seeds := structuralEdit(t, tab, cur)
		st, _, err := CompileIncremental(edited, cur.st, seeds)
		if err != nil {
			t.Fatal(err)
		}
		ne, err := cur.Reseed(st, seeds, inPlace)
		if err != nil {
			t.Fatal(err)
		}
		if !inPlace {
			t.Cleanup(ne.Close)
		}
		chunks := slices.Clone(o.chunks)
		o.RebaseStructural(ne)
		o.Propagate()
		if len(o.slot) != ne.numPins || len(o.epSlot) != len(ne.epPin) {
			t.Fatalf("in place %v: index covers %d pins / %d endpoints, engine has %d / %d", inPlace, len(o.slot), len(o.epSlot), ne.numPins, len(ne.epPin))
		}
		if !slices.Equal(o.chunks[:len(chunks)], chunks) {
			t.Fatalf("in place %v: the rebase did not keep the overlay's chunks", inPlace)
		}

		cold, err := NewEngineLanes(st, lanes, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cold.Close)
		for i, arc := range o.touched {
			for rf := 0; rf < 2; rf++ {
				cold.SetArcDelay(arc, rf, o.arcDist[i][rf])
			}
		}
		cold.Run()
		sameSlacks(t, fmt.Sprintf("rebased over a reseed (in place: %v) vs cold", inPlace), overlaySlacks(o), engineSlacks(cold))
		sameOverlayQueues(t, "rebased over a reseed", o, cold)
		if len(o.touched) == 0 || len(o.ChangedEndpointsView()) == 0 {
			t.Fatal("no delta survived the edit — test is vacuous")
		}
		tab, cur = edited, ne
	}
}
