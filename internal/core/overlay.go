package core

// Copy-on-write what-if evaluation. The serving layer (internal/server) runs
// many concurrent "ECO sessions" against one signoff-propagated engine: each
// session re-annotates a handful of arcs (an estimate_eco batch) and wants
// the resulting endpoint slacks without paying a full propagation and without
// cloning the engine's Top-K tensors.
//
// An Overlay freezes the base engine's propagated state — every lane of it —
// as the immutable snapshot and holds only sparse deltas on top of it, so one
// cone re-propagation prices a what-if in all scenarios:
//
//   - an arc-delay overlay (the re-annotated arcs),
//   - a pin-queue overlay covering exactly the fan-out cone the deltas
//     reached before the wavefront converged (incremental.go), and
//   - the slacks of endpoints inside that cone.
//
// Reads fall through to the base engine wherever the overlay has no entry,
// so N concurrent sessions cost O(Σ cone sizes), not N engine clones. The
// overlay writes no base state until Commit adopts the preview, which is
// bit-identical to a full propagation: the overlay *is* the engine's late view
// (view.go), and on a hold engine its early one, with the deltas shadowing
// it, run through the one cone wave, the one recompute and the one slack walk.
//
// Concurrency contract: an Overlay itself is single-threaded (the serving
// layer serializes per-session), but any number of overlays may evaluate in
// parallel over one frozen base as long as nothing mutates that base — the
// serving layer enforces this with a reader/writer lock around commits.

import (
	"math"
	"slices"

	"insta/internal/num"
)

// Overlay is a copy-on-write what-if view over a propagated base engine.
//
// Storage discipline (DESIGN.md §8, §12): an overlay is sparse in storage and
// dense in look-up. Recomputed queues live in shadow rows carved from
// fixed-size chunks, found through an index by pin; re-evaluated slacks in
// slots found through an index by endpoint. A cone pin is written once: the
// wave rebuilds its queues into a fresh row — whatever bytes that row held —
// and compares them, on what a queue means (equalLive), with the row the pin
// shows, which nothing has overwritten; once the level is done the pin is
// pointed at the fresh row and the one it showed is recycled. Reset and
// Rebase keep the chunks and indices (Rebase the indices while they still fit
// the base), so a session's steady-state
// apply→propagate→read loop settles at zero allocations per operation once
// they have grown to the cone's footprint. Release resets the whole overlay
// and hands it to the base engine's pool, with everything it grew, and
// NewOverlay takes one from there: a new session's first what-if runs on
// storage an earlier one left and allocates nothing. The wavefront state
// lives in a per-overlay propScratch (the merge scratch its kernels index
// startpoints in is the base engine's, on loan for each Propagate), and
// endpoint bookkeeping uses reusable slices.
type Overlay struct {
	// The base engine's late view with its shadows filled in. arcSlot/arcDist
	// is the sparse arc-delay overlay: arc id -> per-rf nominal delay
	// distributions, arcDist parallel to touched. slot/chunks is the pin-queue
	// overlay: pins whose Top-K queues were recomputed under the overlay.
	// Entries may be equal to the base (a wavefront that converged); reads
	// through them are still correct.
	view
	// On a hold engine, the early view under the same shadows: a pin's early
	// queues are row r of early.chunks where its late ones are row r of chunks.
	early view

	touched []int32 // overlaid arc ids in first-annotation order
	pending []int32 // arcs annotated since the last propagate

	// Shadow row bookkeeping. ix is the overlay's look-up arrays (view.slot,
	// view.arcBit and epSlot alias them), made at the first SetArcDelay and
	// kept while they cover the base; shadowed lists the pins slot marks, so
	// clearing is O(cone), and touched the arcs arcBit flags.
	// Rows 0..nRows-1 of chunks have been handed out; those not in freeRows
	// are in use, exactly one per shadowed pin that is not derived between
	// Propagates. fresh is parallel to the bucket the wave is rebuilding: the
	// slot entry bindBucket took for each pin — 1 + a row nothing shows, or -1
	// for a derived pin — which settlePin points it at.
	ix       *shadowIndex
	shadowed []int32
	freeRows []int32
	nRows    int32
	fresh    []int32

	// Endpoint state: slacks re-evaluated under the overlay (epSlot[ep] is 0
	// while the base's stand, else 1 + t, with the endpoint's S lane slacks at
	// epSlack[t*S:]) and the sorted set of all endpoints ever re-evaluated
	// (ChangedEndpointsView). The endpoints a wave changed are its scratch's
	// eps until they are re-evaluated; holdEPs, the sorted set of those whose
	// early queues a wave changed, until Commit re-evaluates their hold slacks.
	epSlot     []int32
	epSlack    []float64
	changedEPs []int32
	holdEPs    []int32
	epOut      []float64 // slack kernel output scratch, S per changed endpoint
	figs       []float64 // the per-lane figures the accessors fold (figures)

	scratch *propScratch // wavefront state, reused across Propagate calls

	// slackFn is bound once: a closure literal passed to the pool escapes
	// (the job slot retains it), so building one per launch would cost an
	// allocation. It reads its per-launch state (scratch.eps, epOut) through o.
	slackFn func(id, lo, hi int)
}

// shadowIndex is one overlay's dense look-up arrays over its base engine's
// pins, endpoints and arcs. A reset overlay's is all zero.
type shadowIndex struct {
	pin []int32  // view.slot
	ep  []int32  // Overlay.epSlot
	arc []uint64 // view.arcBit
}

// NewOverlay returns an empty overlay over e: one a Release handed to e's
// pool, fitted to e as it is now, or a new one. The base engine must be fully
// propagated and slack-evaluated (Run) before the first Propagate, and must
// stay frozen while the overlay evaluates.
func NewOverlay(e *Engine) *Overlay {
	if o, _ := e.overlays.Get().(*Overlay); o != nil {
		o.Rebase(e) // empty: this only fits its scratch and index to e
		return o
	}
	return &Overlay{view: view{e: e, q: e.top.q, arcSlot: make(map[int32]int32)}}
}

// Base returns the engine the overlay shadows: the one it was created over,
// or the last it was rebased onto.
func (o *Overlay) Base() *Engine { return o.e }

// newShadowIndex returns all-zero look-up arrays over e's pins, endpoints and
// arcs as they are now (a structural edit appends pins and arcs under the
// same engine).
func newShadowIndex(e *Engine) *shadowIndex {
	return &shadowIndex{pin: make([]int32, e.st.NumPins), ep: make([]int32, len(e.st.EpPin)),
		arc: make([]uint64, (e.NumArcs()+63)>>6)}
}

// covers reports whether ix spans e's pins, endpoints and arcs.
func (ix *shadowIndex) covers(e *Engine) bool {
	return len(ix.pin) >= e.st.NumPins && len(ix.ep) >= len(e.st.EpPin) && len(ix.arc)<<6 >= e.NumArcs()
}

// bindIndex makes the look-up arrays over the base engine and flags the
// touched arcs in them.
func (o *Overlay) bindIndex() {
	o.ix = newShadowIndex(o.e)
	o.slot, o.epSlot, o.arcBit = o.ix.pin, o.ix.ep, o.ix.arc
	for _, a := range o.touched {
		o.arcBit[a>>6] |= 1 << (a & 63)
	}
}

// clearArcBits clears the bits of the touched arcs.
func (o *Overlay) clearArcBits() {
	if o.arcBit != nil {
		for _, a := range o.touched {
			o.arcBit[a>>6] &^= 1 << (a & 63)
		}
	}
}

// takeRow returns a shadow row nothing shows: a recycled one when there is
// one, else the next of the overlay's chunks, else the first of a new chunk.
// Its content is whatever its last user left there.
func (o *Overlay) takeRow() int32 {
	if n := len(o.freeRows); n > 0 {
		r := o.freeRows[n-1]
		o.freeRows = o.freeRows[:n-1]
		return r
	}
	if int(o.nRows) == len(o.chunks)<<chunkShift {
		c := newQueues(chunkRows * 2 * o.e.qstride)
		o.chunks = append(o.chunks, &c)
	}
	for o.e.hold != nil && len(o.early.chunks) < len(o.chunks) {
		c := newQueues(chunkRows * 2 * o.e.qstride)
		o.early.chunks = append(o.early.chunks, &c)
	}
	o.nRows++
	return o.nRows - 1
}

// bindBucket is the wave's serial bind hook: every stored pin about to be
// rebuilt takes a fresh row, so the kernel writes the overlay and never the
// base — and never the row the pin shows, which the compare reads. A derived
// pin takes no row: the wave passes through it, and its child replays it.
func (o *Overlay) bindBucket(bucket []int32) {
	o.fresh = o.fresh[:0]
	for _, p := range bucket {
		t := int32(-1)
		if o.e.rows[p].stored() {
			t = 1 + o.takeRow()
		}
		o.fresh = append(o.fresh, t)
	}
}

// rebuildPin is the wave's rebuild hook: pin p = bucket[i] into its fresh row
// in the late view and, on a hold engine, in the early one.
func (o *Overlay) rebuildPin(i int, p int32, ms *mergeScratch) (m uint8) {
	t := o.fresh[i]
	if o.rebuild(1, p, ms, o.shadowRow(p, t)) {
		m = lateMoved
	}
	if o.e.hold != nil && o.early.rebuild(-1, p, ms, o.early.shadowRow(p, t)) {
		m |= earlyMoved
	}
	return m
}

// settlePin is the wave's settle hook. The level's kernel has returned, so pin
// p = bucket[i] is pointed at the row it was rebuilt into (a derived pin is
// marked as in the cone) and the shadow row it showed before is recycled.
func (o *Overlay) settlePin(i int, p int32) {
	switch was := o.slot[p]; {
	case was == 0:
		o.shadowed = append(o.shadowed, p)
	case was > 0:
		o.freeRows = append(o.freeRows, was-1)
	}
	o.slot[p] = o.fresh[i]
}

// SetArcDelay annotates one arc's delay for output transition rf in the
// overlay only. The base engine is untouched. Call Propagate after a batch.
func (o *Overlay) SetArcDelay(arc int32, rf int, d num.Dist) {
	if o.ix == nil {
		o.bindIndex()
	}
	var i int32
	if w, b := arc>>6, uint64(1)<<(arc&63); o.arcBit[w]&b != 0 {
		i = o.arcSlot[arc]
	} else {
		i = int32(len(o.touched))
		o.arcBit[w] |= b
		o.arcSlot[arc] = i
		o.touched = append(o.touched, arc)
		o.arcDist = append(o.arcDist, [2]num.Dist{o.e.ArcDelay(arc, 0), o.e.ArcDelay(arc, 1)})
	}
	o.arcDist[i][rf] = d
	// The rise/fall pair of one arc arrives back to back; any other repeat is
	// deduped per destination pin when the wave is seeded.
	if n := len(o.pending); n == 0 || o.pending[n-1] != arc {
		o.pending = append(o.pending, arc)
	}
}

// ArcDelay returns the arc's delay as seen through the overlay.
func (o *Overlay) ArcDelay(arc int32, rf int) num.Dist {
	mean, std := o.arcDelay(rf, arc)
	return num.Dist{Mean: mean, Std: std}
}

// Propagate re-propagates the fan-out cone of every arc annotated since the
// last call, writing recomputed queues into the overlay only: the engine's
// cone wave (coneWave) over the shadowed late view and, on a hold engine, the
// shadowed early one, so the overlay state is bit-identical to what a full
// propagation would produce on the base. It prices setup slacks only.
func (o *Overlay) Propagate() {
	arcs := o.pending
	o.pending = o.pending[:0]
	if len(arcs) == 0 {
		return
	}
	e := o.e
	sp := e.opt.Tracer.StartArg(KernelOverlay, "arcs", int64(len(arcs)))
	defer sp.End()

	// Wavefront state is per-overlay (concurrent overlays share one frozen
	// base but never scratch), reused allocation-free across Propagate calls.
	if o.scratch == nil {
		o.scratch = e.newPropScratch(o.rebuildPin, o.bindBucket, o.settlePin)
	}
	if o.ix == nil {
		o.bindIndex()
	}
	if e.hold != nil { // the shadows the early view aliases may have been remade or grown
		o.early = view{e: e, q: e.hold.q, slot: o.slot, chunks: o.early.chunks, arcSlot: o.arcSlot, arcBit: o.arcBit, arcDist: o.arcDist}
	}
	o.scratch.reset()
	o.scratch.seedArcs(e, arcs)
	// The rows the wave takes are counted even if it panics, so that a Reset
	// of the abandoned overlay gives back exactly what it holds.
	was := o.rowsInUse()
	defer func() { e.overlayRows.Add(int64(o.rowsInUse() - was)) }()
	e.coneWave(KernelOverlay, o.scratch)
	o.evalDirtyEndpoints()
	o.holdEPs = append(o.holdEPs, o.scratch.holdEps...)
	slices.Sort(o.holdEPs)
	o.holdEPs = slices.Compact(o.holdEPs)
}

// evalDirtyEndpoints re-evaluates the slack of every endpoint whose pin
// queues the wave changed, in every lane, through the engine's pool. Each pin
// enters at most one bucket per wave and maps to at most one endpoint, so the
// set holds no duplicates; it is sorted so the kernel's index space — and
// therefore the overlay's state — is independent of the order the deltas were
// annotated in.
func (o *Overlay) evalDirtyEndpoints() {
	dirty := o.scratch.eps
	if len(dirty) == 0 {
		return
	}
	e := o.e
	slices.Sort(dirty)
	ssp := e.opt.Tracer.StartArg(KernelOverlaySlack, "endpoints", int64(len(dirty)))
	defer ssp.End()
	S := len(e.scns)
	if cap(o.epOut) < len(dirty)*S {
		o.epOut = make([]float64, len(dirty)*S)
	}
	o.epOut = o.epOut[:len(dirty)*S]
	if o.slackFn == nil {
		o.slackFn = func(_, lo, hi int) {
			S := len(o.e.scns)
			for i := lo; i < hi; i++ {
				for s := 0; s < S; s++ {
					o.epOut[i*S+s], _, _ = o.setupSlack(s, o.scratch.eps[i], o.e.opt.TopK)
				}
			}
		}
	}
	e.pool.RunIndexed(KernelOverlaySlack, -1, len(dirty), o.slackFn)
	grew := false
	for i, ep := range dirty {
		t := o.epSlot[ep]
		if t == 0 {
			o.changedEPs = append(o.changedEPs, ep)
			o.epSlot[ep] = int32(len(o.changedEPs))
			o.epSlack = append(o.epSlack, o.epOut[i*S:(i+1)*S]...)
			grew = true
			continue
		}
		copy(o.epSlack[int(t-1)*S:], o.epOut[i*S:(i+1)*S])
	}
	if grew {
		slices.Sort(o.changedEPs)
	}
}

// LaneSlack returns endpoint i's slack in lane s as seen through the overlay.
func (o *Overlay) LaneSlack(s int, i int32) float64 {
	if o.epSlot != nil {
		if t := o.epSlot[i]; t != 0 {
			return o.epSlack[int(t-1)*len(o.e.scns)+s]
		}
	}
	return o.e.epSlack[s*len(o.e.st.EpPin)+int(i)]
}

// Summarize is every figure an ECO result reports, from one scan of the
// endpoints in index order: it fills wns[s] and tns[s] with lane s's worst
// and total negative slack under the overlay for every lane (wns and tns hold
// at least Lanes() entries), and returns the same two figures over the merged
// slacks (per endpoint, the worst lane). The folds are the base engine's —
// WNS starts at 0 and takes any smaller slack, TNS adds each negative one in
// index order — so committed and previewed figures agree bit-for-bit.
func (o *Overlay) Summarize(wns, tns []float64) (mergedWNS, mergedTNS float64) {
	S, n := len(o.e.scns), len(o.e.st.EpPin)
	wns, tns = wns[:S], tns[:S]
	clear(wns)
	clear(tns)
	for i := 0; i < n; i++ {
		var shown []float64 // the endpoint's lane slacks, if the overlay re-evaluated it
		if o.epSlot != nil {
			if t := int(o.epSlot[i]); t != 0 {
				shown = o.epSlack[(t-1)*S : t*S]
			}
		}
		best := math.Inf(1)
		for s := 0; s < S; s++ {
			sl := o.e.epSlack[s*n+i]
			if shown != nil {
				sl = shown[s]
			}
			if sl < wns[s] {
				wns[s] = sl
			}
			if sl < 0 {
				tns[s] += sl
			}
			if sl < best {
				best = sl
			}
		}
		if best < mergedWNS {
			mergedWNS = best
		}
		if best < 0 {
			mergedTNS += best
		}
	}
	return mergedWNS, mergedTNS
}

// figures is Summarize for one lane: lane s's WNS and TNS, and the merged
// ones.
func (o *Overlay) figures(s int) (wns, tns, mergedWNS, mergedTNS float64) {
	S := len(o.e.scns)
	if cap(o.figs) < 2*S {
		o.figs = make([]float64, 2*S)
	}
	w, t := o.figs[:S], o.figs[S:2*S]
	mergedWNS, mergedTNS = o.Summarize(w, t)
	return w[s], t[s], mergedWNS, mergedTNS
}

// LaneWNS returns lane s's worst negative slack under the overlay (0 when
// nothing violates), as Summarize folds it.
func (o *Overlay) LaneWNS(s int) float64 {
	wns, _, _, _ := o.figures(s)
	return wns
}

// LaneTNS returns lane s's total negative slack under the overlay, as
// Summarize folds it.
func (o *Overlay) LaneTNS(s int) float64 {
	_, tns, _, _ := o.figures(s)
	return tns
}

// WNS returns lane 0's worst negative slack under the overlay.
func (o *Overlay) WNS() float64 { return o.LaneWNS(0) }

// TNS returns lane 0's total negative slack under the overlay.
func (o *Overlay) TNS() float64 { return o.LaneTNS(0) }

// ChangedEndpointsView returns the sorted endpoints whose slack the overlay
// re-evaluated (their cone held a changed pin), valid until the next
// Propagate, Reset or Rebase. Callers must not mutate or retain it.
func (o *Overlay) ChangedEndpointsView() []int32 { return o.changedEPs }

// OverlayStats summarizes the overlay's sparse footprint.
type OverlayStats struct {
	TouchedArcs int // arcs re-annotated
	OverlayPins int // pins with recomputed queues (the reached cone's live pins, derived ones included)
	ChangedEPs  int // endpoints re-evaluated
}

// Stats reports the overlay's current sparse footprint.
func (o *Overlay) Stats() OverlayStats {
	return OverlayStats{
		TouchedArcs: len(o.touched),
		OverlayPins: len(o.shadowed),
		ChangedEPs:  len(o.changedEPs),
	}
}

// OverlayRows returns how many shadow rows the overlays over e hold in use
// right now — one per pin a live preview recomputed, but for the derived pins
// in its cone, which are recomputed without a row — and their size in bytes
// (on a hold engine, with the early rows).
// What the overlays hold beyond that (the unused rows of their chunks, 4
// bytes of index per pin and endpoint from an overlay's first preview on, and
// all of it for the released overlays in e's pool) is not in the figure.
func (e *Engine) OverlayRows() (rows, bytes int64) {
	rows, views := e.overlayRows.Load(), int64(1)
	if e.hold != nil {
		views = 2
	}
	return rows, rows * views * 2 * int64(e.qstride) * (8 + 8 + 4)
}

// rowsInUse returns how many shadow rows the overlay has handed out and not
// recycled: between Propagates, one per shadowed pin that is not derived.
func (o *Overlay) rowsInUse() int { return int(o.nRows) - len(o.freeRows) }

// Reset discards all overlay state — the session rollback. The base engine
// is untouched. The arc map and the indices are cleared in place and every
// shadow row is free again, so a reset-and-reapply cycle does not reallocate.
func (o *Overlay) Reset() {
	o.clearArcBits()
	clear(o.arcSlot)
	o.arcDist = o.arcDist[:0]
	o.touched = o.touched[:0]
	o.pending = o.pending[:0]
	o.dropDerived()
}

// dropDerived invalidates everything computed from the deltas — recomputed
// queues and re-evaluated slacks — keeping all storage for reuse. The indices
// are zeroed by walking what they mark, never whole.
func (o *Overlay) dropDerived() {
	for _, p := range o.shadowed {
		o.slot[p] = 0
	}
	for _, ep := range o.changedEPs {
		o.epSlot[ep] = 0
	}
	o.e.overlayRows.Add(-int64(o.rowsInUse()))
	o.shadowed = o.shadowed[:0]
	o.freeRows, o.nRows = o.freeRows[:0], 0
	o.epSlack = o.epSlack[:0]
	o.changedEPs = o.changedEPs[:0]
	o.holdEPs = o.holdEPs[:0]
}

// Release resets the overlay and hands it, with every chunk, index, scratch
// and slice it grew, to the base engine's pool, where the next NewOverlay over
// that engine takes it — the end of a session. o must not be used again.
func (o *Overlay) Release() {
	o.Reset()
	o.e.overlays.Put(o)
}

// Rebase re-targets the overlay at e after the base changed under it: a
// commit re-annotated it, a structural commit replaced it with e (same lanes
// and TopK), or a structural edit reseeded it in place. Arc ids are permanent
// and SetArcDelay stores absolute per-rf delays, so every arc delta is kept as
// recorded — the session's pending intent — and scheduled for
// re-propagation; one that now matches the base costs a one-pin wavefront
// that stops on equality. Everything derived from the deltas (queues,
// slacks) is invalidated. The indices are kept while they still cover e's
// pins, endpoints and arcs, and the wavefront scratch while it covers e's
// levels and pins and e is the same engine (its kernel is bound to it);
// otherwise the next Propagate makes the scratch at e's size, and the
// indices are made at once if the overlay holds deltas, which they flag. Row
// chunks of both views always survive: their size depends only on TopK and
// the lane count, which no commit changes.
func (o *Overlay) Rebase(e *Engine) {
	o.dropDerived()
	if sc := o.scratch; e != o.e || sc != nil && (len(sc.buckets) < e.st.NumLevels || len(sc.queuedAt) < e.st.NumPins) {
		o.scratch = nil
	}
	o.pending = append(o.pending[:0], o.touched...)
	o.e, o.q = e, e.top.q
	if o.ix != nil && !o.ix.covers(e) {
		o.ix, o.slot, o.epSlot, o.arcBit = nil, nil, nil, nil
		if len(o.touched) > 0 {
			o.bindIndex()
		}
	}
}

// Commit adopts the overlay's preview (a pending batch is propagated first)
// into the base engine and resets the overlay: the arc deltas, each rebuilt
// stored pin's shadow rows (late and, on a hold engine, early), the changed
// endpoints' slacks, critical startpoints and transitions in every lane from
// the engine's own slack walk, and the hold slacks of the endpoints whose
// early queues changed. It runs no wave. The caller holds the base
// exclusively and has rebased the overlay onto any change of it; the base is
// then bit-identical to a full Run.
func (o *Overlay) Commit() {
	if len(o.touched) == 0 {
		return
	}
	o.Propagate()
	e := o.e
	sp := e.opt.Tracer.StartArg("overlay-commit", "arcs", int64(len(o.touched)))
	defer sp.End()
	for i, arc := range o.touched {
		for rf := 0; rf < 2; rf++ {
			e.SetArcDelay(arc, rf, o.arcDist[i][rf])
		}
	}
	for _, p := range o.shadowed {
		if t := o.slot[p]; t > 0 {
			e.top.row(p).store(o.shadowRow(p, t), e.rowSlots(p))
			if e.hold != nil {
				e.hold.row(p).store(o.early.shadowRow(p, t), e.rowSlots(p))
			}
		}
	}
	e.refreshSlacks(len(o.changedEPs), o.changedEPs)
	if e.hold != nil {
		e.refreshHoldSlacks(len(o.holdEPs), o.holdEPs)
	}
	o.Reset()
}
