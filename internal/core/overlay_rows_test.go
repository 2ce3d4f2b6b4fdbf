package core

// An overlay's shadow rows (DESIGN.md §8): a cone pin is rebuilt into a row
// that still holds whatever its last user left there, and compared with the
// row it showed before. These tests pin what that must never cost — a
// recycled row's old bytes leaking into an answer or stopping a wavefront, a
// previous row that is never recycled — and that whole overlays, with their
// rows and indices, can go round between sessions over one base while others
// preview.

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
	for p := int32(0); p < int32(o.e.st.NumPins); p++ {
		if !sameShown(&o.view, &want.top, 1, p) {
			t.Fatalf("%s: pin %d: queues through the overlay differ from the committed ones", what, p)
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
// — the overlay's own after a Reset, or a released overlay's taken back from
// the base engine's pool — is the preview a fresh overlay gives and what a
// commit leaves. The failure this pins is stale storage standing in for what
// a pin showed before: bytes that happen to match the recomputed queues stop
// a wavefront early and strand everything downstream on base values.
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
			// what it is given and a Get may miss, so go round until a new
			// overlay is the donor taken back, with the rows its preview filled.
			reused := false
			for try := 0; try < 20 && !reused; try++ {
				donor := NewOverlay(e)
				applyToOverlay(donor, dA)
				donor.Release()
				heir := NewOverlay(e)
				if reused = heir == donor; reused {
					releasedEmpty(t, heir)
				}
				applyToOverlay(heir, dB)
				samePreview(t, "on a released overlay's rows", heir, fresh, cold)
				heir.Release()
			}
			if !reused {
				t.Fatal("no new overlay was a released one — test is vacuous")
			}
		})
	}
}

// releasedEmpty fails the test unless o, taken back from its engine's pool,
// is as empty as a new overlay: no shadowed pin, arc bit, arc delta or
// endpoint slot, and no row in use — while it keeps its storage.
func releasedEmpty(t *testing.T, o *Overlay) {
	t.Helper()
	if len(o.chunks) == 0 || o.ix == nil {
		t.Fatal("a released overlay came back without its chunks or index")
	}
	if n := o.rowsInUse(); n != 0 || len(o.shadowed) != 0 || len(o.freeRows) != 0 {
		t.Fatalf("a released overlay came back with %d rows in use, %d shadowed pins, %d free rows", n, len(o.shadowed), len(o.freeRows))
	}
	if len(o.touched)+len(o.pending)+len(o.arcDist)+len(o.arcSlot) != 0 || len(o.changedEPs)+len(o.epSlack) != 0 {
		t.Fatalf("a released overlay came back holding arcs %v, changed endpoints %v", o.touched, o.changedEPs)
	}
	for p, t0 := range o.slot {
		if t0 != 0 {
			t.Fatalf("a released overlay came back shadowing pin %d", p)
		}
	}
	for ep, t0 := range o.epSlot {
		if t0 != 0 {
			t.Fatalf("a released overlay came back with a slot for endpoint %d", ep)
		}
	}
	for w, bits := range o.arcBit {
		if bits != 0 {
			t.Fatalf("a released overlay came back with arc bits %#x at word %d", bits, w)
		}
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
				derived := 0
				for _, p := range o.shadowed {
					if e.rows[p].derived {
						derived++
					}
				}
				if got, want := o.rowsInUse(), o.Stats().OverlayPins-derived; got != want || derived == 0 {
					t.Fatalf("%s: %d rows in use for %d shadowed pins, %d of them derived", when, got, want+derived, derived)
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
			o.Rebase(e)
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
// Release over one {ss,tt,ff} base on a two-worker pool, so overlays change
// hands through the engine's pool the whole time, while a ninth overlay
// resets and re-applies on storage it keeps. Every preview is
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
// engine makes indices of the new engine's size — also when that is the same
// engine, grown in place — and keeps its row chunks. Its deltas, kept on the
// ids they were recorded on, preview what a cold engine over the edited state
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
	for _, fork := range []bool{true, false} {
		edited, seeds := structuralEdit(t, tab, cur)
		st, err := Compile(edited)
		if err != nil {
			t.Fatal(err)
		}
		ne := reseedOnto(cur, st, seeds, fork)
		if fork {
			t.Cleanup(ne.Close)
		}
		chunks := slices.Clone(o.chunks)
		o.Rebase(ne)
		o.Propagate()
		if len(o.slot) != ne.st.NumPins || len(o.epSlot) != len(ne.st.EpPin) {
			t.Fatalf("fork %v: index covers %d pins / %d endpoints, engine has %d / %d", fork, len(o.slot), len(o.epSlot), ne.st.NumPins, len(ne.st.EpPin))
		}
		if !slices.Equal(o.chunks[:len(chunks)], chunks) {
			t.Fatalf("fork %v: the rebase did not keep the overlay's chunks", fork)
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
		sameSlacks(t, fmt.Sprintf("rebased over a reseed (fork: %v) vs cold", fork), overlaySlacks(o), engineSlacks(cold))
		sameOverlayQueues(t, "rebased over a reseed", o, cold)
		if len(o.touched) == 0 || len(o.ChangedEndpointsView()) == 0 {
			t.Fatal("no delta survived the edit — test is vacuous")
		}
		tab, cur = edited, ne
	}
}

// TestPooledOverlayFitsGrownEngine: an overlay released over an engine that
// is then patched in place — more pins, arcs and possibly levels — comes back
// from the pool fitted to the engine as it is now: a preview that annotates
// the appended arcs and reaches the appended pins is the one a new overlay
// gives.
func TestPooledOverlayFitsGrownEngine(t *testing.T) {
	h := buildHarness(t, testSpec(96))
	base := newLaneEngine(t, h.tab, laneCases[1].lanes, Options{TopK: 6, Workers: 2})
	base.Run()
	e := base.Fork()
	defer e.Close()
	arc := positiveNetArc(t, e.st)
	released := map[*Overlay]bool{}
	for i := 0; i < 4; i++ {
		o := NewOverlay(e)
		applyToOverlay(o, perturb(e, int32(i), 7, 1.3, 1.2))
		released[o] = true
		o.Release()
	}
	n := int32(e.NumArcs())
	edits, newPins, seeds := bufferEdits(e.st, arc)
	mustPatch(t, e, edits, newPins, seeds)
	deltas := perturb(e, 1, 13, 1.2, 1.1)
	for _, a := range []int32{arc, n, n + 1} { // the buffer's arcs
		deltas[a] = [2]num.Dist{{Mean: 40, Std: 3}, {Mean: 45, Std: 3}}
	}
	fresh := &Overlay{view: view{e: e, q: e.top.q, arcSlot: make(map[int32]int32)}}
	applyToOverlay(fresh, deltas)
	for try := 0; try < 20; try++ {
		o := NewOverlay(e)
		applyToOverlay(o, deltas)
		sameSlacks(t, "a pooled overlay over the grown engine", overlaySlacks(o), overlaySlacks(fresh))
		if released[o] {
			return
		}
		released[o] = true
		o.Release()
	}
	t.Fatal("no NewOverlay handed back a released overlay — test is vacuous")
}
