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
//     reached before the wavefront converged (the same equality-stop as
//     PropagateIncremental), and
//   - the slacks of endpoints inside that cone.
//
// Reads fall through to the base engine wherever the overlay has no entry,
// so N concurrent sessions cost O(Σ cone sizes), not N engine clones. The
// overlay never writes base state; Commit folds the arc deltas back into the
// base with a regular incremental propagation, which makes the committed
// state bit-identical to the overlay's preview: the overlay *is* the engine's
// late view (view.go) with those deltas shadowing it, and both run the one
// cone wave, the one recompute and the one slack walk over it.
//
// Concurrency contract: an Overlay itself is single-threaded (the serving
// layer serializes per-session), but any number of overlays may evaluate in
// parallel over one frozen base as long as nothing mutates that base — the
// serving layer enforces this with a reader/writer lock around commits.

import (
	"slices"

	"insta/internal/num"
)

// Overlay is a copy-on-write what-if view over a propagated base engine.
//
// Storage discipline (DESIGN.md §8, §12): an overlay is sparse in storage and
// dense in look-up. Recomputed queues live in shadow rows carved from
// fixed-size chunks, found through an index by pin; re-evaluated slacks in
// slots found through an index by endpoint. A cone pin is written once: the
// wave points it at a fresh row — whatever bytes that row held — rebuilds its
// queues there and compares them, on what a queue means (equalLive), with the
// row the pin showed until then, which nothing has overwritten. Reset and
// Rebase keep the chunks and indices, so a session's steady-state
// apply→propagate→read loop settles at zero allocations per operation once
// they have grown to the cone's footprint; Release hands them to the base
// engine's pools, where the next overlay over that engine finds them. The
// wavefront state lives in a per-overlay propScratch (the merge scratch its
// kernels index startpoints in is the base engine's, on loan for each
// Propagate), and endpoint bookkeeping uses reusable slices.
type Overlay struct {
	// The base engine's late view with its shadows filled in. arcSlot/arcDist
	// is the sparse arc-delay overlay: arc id -> per-rf nominal delay
	// distributions, arcDist parallel to touched. slot/chunks is the pin-queue
	// overlay: pins whose Top-K queues were recomputed under the overlay.
	// Entries may be equal to the base (a wavefront that converged); reads
	// through them are still correct.
	view

	touched []int32 // overlaid arc ids in first-annotation order
	pending []int32 // arcs annotated since the last propagate

	// Shadow row bookkeeping. ix is the overlay's pair of look-up arrays
	// (view.slot and epSlot alias it), taken from the base engine at the first
	// Propagate; shadowed lists the pins slot marks, so clearing is O(cone).
	// Rows 0..nRows-1 of chunks have been handed out; those not in freeRows
	// are in use, exactly one per shadowed pin between Propagates. prev is
	// parallel to the bucket the wave is retiming: the slot entry each pin
	// showed until bindBucket gave it a fresh row.
	ix       *shadowIndex
	shadowed []int32
	freeRows []int32
	nRows    int32
	prev     []int32

	// Endpoint state: slacks re-evaluated under the overlay (epSlot[ep] is 0
	// while the base's stand, else 1 + t, with the endpoint's S lane slacks at
	// epSlack[t*S:]), the endpoints whose pins changed but are not yet
	// re-evaluated, and the sorted set of all endpoints ever re-evaluated
	// (ChangedEndpointsView).
	epSlot     []int32
	epSlack    []float64
	dirty      []int32
	changedEPs []int32
	epOut      []float64 // slack kernel output scratch, S per dirty endpoint

	scratch *propScratch // wavefront state, reused across Propagate calls

	// slackFn is bound once: a closure literal passed to the pool escapes
	// (the job slot retains it), so building one per launch would cost an
	// allocation. It reads its per-launch state (dirty, epOut) through o.
	slackFn func(id, lo, hi int)
}

// shadowIndex is one overlay's pair of dense look-up arrays over its base
// engine's pins and endpoints. An index on the engine's pool is all zero.
type shadowIndex struct {
	pin []int32 // view.slot
	ep  []int32 // Overlay.epSlot
}

// NewOverlay creates an empty overlay over e. The base engine must be fully
// propagated and slack-evaluated (Run) before the first Propagate, and must
// stay frozen while the overlay evaluates.
func NewOverlay(e *Engine) *Overlay {
	return &Overlay{view: view{e: e, q: e.top.q, arcSlot: make(map[int32]int32)}}
}

// takeIndex gives the overlay its look-up arrays, from the base engine's pool
// when that holds a pair covering the engine's pins as they are now (an
// in-place Reseed appends pins under the same engine).
func (o *Overlay) takeIndex() {
	e := o.e
	ix, _ := e.indexPool.Get().(*shadowIndex)
	if ix == nil || len(ix.pin) < e.numPins || len(ix.ep) < len(e.epPin) {
		ix = &shadowIndex{pin: make([]int32, e.numPins), ep: make([]int32, len(e.epPin))}
	}
	o.ix, o.slot, o.epSlot = ix, ix.pin, ix.ep
}

// returnIndex hands the look-up arrays, which dropDerived has zeroed, back to
// the base engine.
func (o *Overlay) returnIndex() {
	if o.ix != nil {
		o.e.indexPool.Put(o.ix)
		o.ix, o.slot, o.epSlot = nil, nil, nil
	}
}

// takeRow returns a shadow row nothing shows: a recycled one when there is
// one, else the next of the overlay's chunks, else the first of a chunk taken
// from the base engine. Its content is whatever its last user left there.
func (o *Overlay) takeRow() int32 {
	if n := len(o.freeRows); n > 0 {
		r := o.freeRows[n-1]
		o.freeRows = o.freeRows[:n-1]
		return r
	}
	if int(o.nRows) == len(o.chunks)<<chunkShift {
		c, _ := o.e.chunkPool.Get().(*queues)
		if c == nil {
			nq := newQueues(chunkRows * 2 * o.e.qstride)
			c = &nq
		}
		o.chunks = append(o.chunks, c)
	}
	o.nRows++
	return o.nRows - 1
}

// bindBucket is the wave's serial bind hook: every pin about to be retimed is
// pointed at a fresh row, so the kernel writes the overlay and never the base
// — and never the row the pin showed until now, which prev remembers for the
// compare.
func (o *Overlay) bindBucket(bucket []int32) {
	o.prev = o.prev[:0]
	for _, p := range bucket {
		was := o.slot[p]
		if was == 0 {
			o.shadowed = append(o.shadowed, p)
		}
		o.prev = append(o.prev, was)
		o.slot[p] = 1 + o.takeRow()
	}
}

// retimePin is the wave's retime hook: rebuild pin p = bucket[i] into its
// fresh row and compare that with what the pin showed before. A fresh row's
// empty slots hold another cone's bytes, which equalLive does not look at; a
// merge never reads its destination past the live count it carries, so the
// row needed no seeding either.
func (o *Overlay) retimePin(_, i int, p int32, ms *mergeScratch) bool {
	o.recompute(1, p, ms)
	was := o.prev[i]
	for rf := 0; rf < 2; rf++ {
		q, b := o.shadow(rf, o.slot[p])
		wq, wb := o.q, o.e.base(rf, p)
		if was != 0 {
			wq, wb = o.shadow(rf, was)
		}
		if !q.equalLive(b, wq, wb, o.e.qstride) {
			return true
		}
	}
	return false
}

// settlePin is the wave's settle hook. The level's kernel has returned, so the
// shadow row pin p = bucket[i] showed before can be recycled; and a changed
// endpoint pin owes a slack re-evaluation. Each pin enters at most one bucket
// per Propagate and maps to at most one endpoint, so dirty never holds
// duplicates within a call.
func (o *Overlay) settlePin(i int, p int32, changed bool) {
	if was := o.prev[i]; was != 0 {
		o.freeRows = append(o.freeRows, was-1)
	}
	if !changed {
		return
	}
	if ep := o.e.epOfPin[p]; ep >= 0 {
		o.dirty = append(o.dirty, ep)
	}
}

// SetArcDelay annotates one arc's delay for output transition rf in the
// overlay only. The base engine is untouched. Call Propagate after a batch.
func (o *Overlay) SetArcDelay(arc int32, rf int, d num.Dist) {
	i, ok := o.arcSlot[arc]
	if !ok {
		i = int32(len(o.touched))
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
// cone wave (coneWave) over the shadowed late view, so the overlay state is
// bit-identical to what committing the same deltas would produce on the base.
// Hold is not previewed — overlays shadow the late view only.
func (o *Overlay) Propagate() {
	arcs := o.pending
	o.pending = o.pending[:0]
	if len(arcs) == 0 {
		return
	}
	e := o.e
	sp := e.tracer.StartArg(KernelOverlay, "arcs", int64(len(arcs)))
	defer sp.End()

	// Wavefront state is per-overlay (concurrent overlays share one frozen
	// base but never scratch), reused allocation-free across Propagate calls.
	if o.scratch == nil {
		o.scratch = e.newPropScratch(o.retimePin, o.bindBucket, o.settlePin)
	}
	if o.ix == nil {
		o.takeIndex()
	}
	o.scratch.reset()
	for _, a := range arcs {
		o.scratch.push(e.lv.Level, e.arcTo[a])
	}
	was := len(o.shadowed)
	e.coneWave(KernelOverlay, o.scratch)
	e.overlayRows.Add(int64(len(o.shadowed) - was))
	o.evalDirtyEndpoints()
}

// evalDirtyEndpoints re-evaluates the slack of every endpoint whose pin
// queues changed, in every lane, through the engine's pool. The dirty set is
// sorted so the kernel's index space — and therefore the overlay's state — is
// independent of the order the deltas were annotated in.
func (o *Overlay) evalDirtyEndpoints() {
	if len(o.dirty) == 0 {
		return
	}
	e := o.e
	dirty := o.dirty
	slices.Sort(dirty)
	ssp := e.tracer.StartArg(KernelOverlaySlack, "endpoints", int64(len(dirty)))
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
					o.epOut[i*S+s], _, _ = o.setupSlack(s, o.dirty[i], o.e.opt.TopK)
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
	o.dirty = o.dirty[:0]
}

// LaneSlack returns endpoint i's slack in lane s as seen through the overlay.
func (o *Overlay) LaneSlack(s int, i int32) float64 {
	if o.epSlot != nil {
		if t := o.epSlot[i]; t != 0 {
			return o.epSlack[int(t-1)*len(o.e.scns)+s]
		}
	}
	return o.e.epSlack[s*len(o.e.epPin)+int(i)]
}

// Slack returns endpoint i's lane-0 slack as seen through the overlay.
func (o *Overlay) Slack(i int32) float64 { return o.LaneSlack(0, i) }

// LaneWNS returns lane s's worst negative slack under the overlay (0 when
// nothing violates). The scan visits endpoints in index order, matching the
// base engine's WNS so committed and previewed figures agree bit-for-bit.
func (o *Overlay) LaneWNS(s int) float64 {
	w := 0.0
	for i := range o.e.epPin {
		if sl := o.LaneSlack(s, int32(i)); sl < w {
			w = sl
		}
	}
	return w
}

// LaneTNS returns lane s's total negative slack under the overlay, summed in
// endpoint index order like the base engine's TNS.
func (o *Overlay) LaneTNS(s int) float64 {
	t := 0.0
	for i := range o.e.epPin {
		if sl := o.LaneSlack(s, int32(i)); sl < 0 {
			t += sl
		}
	}
	return t
}

// WNS returns lane 0's worst negative slack under the overlay.
func (o *Overlay) WNS() float64 { return o.LaneWNS(0) }

// TNS returns lane 0's total negative slack under the overlay.
func (o *Overlay) TNS() float64 { return o.LaneTNS(0) }

// ChangedEndpoints returns the sorted indices of endpoints whose slack the
// overlay re-evaluated (their cone contained at least one changed pin). The
// returned slice is a fresh copy; hot paths use ChangedEndpointsView.
func (o *Overlay) ChangedEndpoints() []int32 {
	return append([]int32(nil), o.changedEPs...)
}

// ChangedEndpointsView is ChangedEndpoints without the copy: the returned
// slice is owned by the overlay, stays sorted, and is valid until the next
// Propagate, Reset or Rebase. Callers must not mutate or retain it.
func (o *Overlay) ChangedEndpointsView() []int32 { return o.changedEPs }

// TouchedArcs returns the overlaid arc ids in first-annotation order.
func (o *Overlay) TouchedArcs() []int32 {
	return append([]int32(nil), o.touched...)
}

// OverlayStats summarizes the overlay's sparse footprint.
type OverlayStats struct {
	TouchedArcs int // arcs re-annotated
	OverlayPins int // pins with recomputed queues (the reached cone)
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
// right now — one per pin a live preview recomputed — and their size in bytes.
// What the overlays hold beyond that (the unused rows of their last chunk, 4
// bytes of index per pin and endpoint from a session's first preview until it
// is released) is not in the figure.
func (e *Engine) OverlayRows() (rows, bytes int64) {
	rows = e.overlayRows.Load()
	return rows, rows * 2 * int64(e.qstride) * (8 + 8 + 4)
}

// Reset discards all overlay state — the session rollback. The base engine
// is untouched. The arc map and the indices are cleared in place and every
// shadow row is free again, so a reset-and-reapply cycle does not reallocate.
func (o *Overlay) Reset() {
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
	o.e.overlayRows.Add(-int64(len(o.shadowed)))
	o.shadowed = o.shadowed[:0]
	o.freeRows, o.nRows = o.freeRows[:0], 0
	o.epSlack = o.epSlack[:0]
	o.dirty = o.dirty[:0]
	o.changedEPs = o.changedEPs[:0]
}

// Release resets the overlay and hands its row chunks and indices to the base
// engine's pools, for the next overlay over that engine — the end of a
// session. Unlike Reset it gives up the zero-allocation steady state: a
// released overlay is as good as new, and as empty.
func (o *Overlay) Release() {
	o.Reset()
	for _, c := range o.chunks {
		o.e.chunkPool.Put(c)
	}
	clear(o.chunks)
	o.chunks = o.chunks[:0]
	o.returnIndex()
}

// Rebase invalidates the overlay's derived state (queues, slacks) while
// keeping the arc deltas, and schedules every touched arc for
// re-propagation. The serving layer calls this when another session's commit
// changed the base snapshot under this session.
func (o *Overlay) Rebase() {
	o.dropDerived()
	// Arc deltas are kept verbatim: they are the session's pending intent.
	// A delta that now matches the re-committed base annotation costs only a
	// one-pin wavefront that stops on equality.
	o.pending = append(o.pending[:0], o.touched...)
}

// RebaseStructural re-targets the overlay at a structurally edited
// replacement of its base engine (same lanes and TopK) — or at the same
// engine, reseeded in place. Arc ids are permanent across structural edits and
// SetArcDelay stores absolute per-rf delays, so every arc delta is kept as
// recorded and scheduled for re-propagation. All derived state (queues,
// slacks) is invalidated like Rebase, and the wavefront scratch and the
// indices are discarded because the new engine's level, pin and endpoint
// counts differ: the next Propagate takes both at e's size. Row chunks
// survive: their size depends only on TopK and the lane count, which a
// structural edit never changes.
func (o *Overlay) RebaseStructural(e *Engine) {
	o.dropDerived()
	o.returnIndex()
	o.scratch = nil
	o.pending = append(o.pending[:0], o.touched...)
	o.e, o.q = e, e.top.q
}

// Commit folds the overlay's arc deltas into the base engine, re-propagates
// the affected cone incrementally in every lane, re-evaluates every endpoint
// slack, and resets the overlay. The caller must hold exclusive access to the base
// engine (no concurrent overlay may be evaluating). The resulting base state
// is bit-identical to a full Propagate + EvalSlacks under the same
// annotations, by the incremental-propagation guarantee.
func (o *Overlay) Commit() {
	if len(o.touched) == 0 {
		return
	}
	e := o.e
	sp := e.tracer.StartArg("overlay-commit", "arcs", int64(len(o.touched)))
	defer sp.End()
	for i, arc := range o.touched {
		for rf := 0; rf < 2; rf++ {
			e.SetArcDelay(arc, rf, o.arcDist[i][rf])
		}
	}
	e.PropagateIncremental(o.touched)
	e.RefreshSlacks()
	if e.hold != nil {
		e.RefreshHoldSlacks()
	}
	o.Reset()
}
