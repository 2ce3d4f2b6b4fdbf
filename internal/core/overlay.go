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
// Allocation discipline (DESIGN.md §12): the overlay is built to re-evaluate
// the *same* cone repeatedly without allocating — Reset and Rebase clear the
// sparse maps in place and return pin-queue storage to a freelist instead of
// reallocating, the wavefront state lives in a per-overlay propScratch (the
// merge scratch its kernels index startpoints in is the base engine's, on loan
// for each Propagate), and endpoint bookkeeping uses reusable slices. A session's steady-state
// apply→propagate→read loop therefore settles at zero allocations per
// operation once its maps have grown to the cone's footprint.
type Overlay struct {
	// The base engine's late view with two shadows filled in. arcDelta is the
	// sparse arc-delay overlay: arc id -> per-rf nominal delay distributions.
	// pinQ is the sparse pin-queue overlay: pins whose Top-K queues were
	// recomputed under the overlay. Entries may be bit-equal to the base (a
	// wavefront that converged); reads through them are still correct.
	view

	touched  []int32 // overlaid arc ids in first-annotation order
	pending  []int32 // arcs annotated since the last propagate
	distFree []*[2]num.Dist
	free     []*queues // released pin-queue storage, reused before allocating

	// Endpoint state: slacks re-evaluated under the overlay (endpoint ->
	// slot; slot t holds its S lane slacks at epSlack[t*S:]), the endpoints
	// whose pins changed but are not yet re-evaluated, and the sorted set of
	// all endpoints ever re-evaluated (ChangedEndpointsView).
	epSlot     map[int32]int32
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

// NewOverlay creates an empty overlay over e. The base engine must be fully
// propagated and slack-evaluated (Run) before the first Propagate, and must
// stay frozen while the overlay evaluates.
func NewOverlay(e *Engine) *Overlay {
	return &Overlay{
		view: view{
			e: e, q: e.top.q,
			arcDelta: make(map[int32]*[2]num.Dist),
			pinQ:     make(map[int32]*queues),
		},
		epSlot: make(map[int32]int32),
	}
}

// seededPinOverlay returns queue storage for pin p — from the freelist when
// possible — preloaded with the base's queues. The wave's change detection
// compares against the previously *visible* queues, and a pin touched for the
// first time this Propagate was showing the base's — recycled freelist storage
// (or fresh zeroed storage) must not stand in for them, or a wavefront could
// stop early when stale content happens to match the recomputed result (a
// Reset followed by reapplying identical deltas often hands pins back their
// own old storage).
func (o *Overlay) seededPinOverlay(p int32) *queues {
	var q *queues
	if n := len(o.free); n > 0 {
		q = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		nq := newQueues(2 * o.e.qstride)
		q = &nq
	}
	o.e.top.snapshot(q, p)
	return q
}

// bindBucket is the wave's serial bind hook: every pin about to be retimed
// gets overlay storage, so the kernel writes the overlay and never the base.
func (o *Overlay) bindBucket(bucket []int32) {
	for _, p := range bucket {
		if o.pinQ[p] == nil {
			o.pinQ[p] = o.seededPinOverlay(p)
		}
	}
}

// pinChanged is the wave's sink: a changed endpoint pin owes a slack
// re-evaluation. Each pin enters at most one bucket per Propagate and maps to
// at most one endpoint, so dirty never holds duplicates within a call.
func (o *Overlay) pinChanged(p int32) {
	if ep := o.e.epOfPin[p]; ep >= 0 {
		o.dirty = append(o.dirty, ep)
	}
}

// Base returns the engine this overlay shadows.
func (o *Overlay) Base() *Engine { return o.e }

// SetArcDelay annotates one arc's delay for output transition rf in the
// overlay only. The base engine is untouched. Call Propagate after a batch.
func (o *Overlay) SetArcDelay(arc int32, rf int, d num.Dist) {
	od := o.arcDelta[arc]
	if od == nil {
		if n := len(o.distFree); n > 0 {
			od = o.distFree[n-1]
			o.distFree = o.distFree[:n-1]
		} else {
			od = new([2]num.Dist)
		}
		od[0], od[1] = o.e.ArcDelay(arc, 0), o.e.ArcDelay(arc, 1)
		o.arcDelta[arc] = od
		o.touched = append(o.touched, arc)
	}
	od[rf] = d
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
		o.scratch = e.newPropScratch(&o.view, nil, o.bindBucket, o.pinChanged)
	}
	o.scratch.reset()
	for _, a := range arcs {
		o.scratch.push(e.lv.Level, e.arcTo[a])
	}
	e.coneWave(KernelOverlay, o.scratch)
	o.evalDirtyEndpoints()
}

// evalDirtyEndpoints re-evaluates the slack of every endpoint whose pin
// queues changed, in every lane, through the engine's pool. The dirty set is
// sorted so the kernel's index space — and therefore the overlay's state — is
// independent of map iteration order.
func (o *Overlay) evalDirtyEndpoints() {
	if len(o.dirty) == 0 {
		return
	}
	e := o.e
	dirty := o.dirty
	slices.Sort(dirty)
	ssp := e.tracer.StartArg(KernelOverlaySlack, "endpoints", int64(len(dirty)))
	defer ssp.End()
	S := len(e.lanes)
	if cap(o.epOut) < len(dirty)*S {
		o.epOut = make([]float64, len(dirty)*S)
	}
	o.epOut = o.epOut[:len(dirty)*S]
	if o.slackFn == nil {
		o.slackFn = func(_, lo, hi int) {
			S := len(o.e.lanes)
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
		slot, ok := o.epSlot[ep]
		if !ok {
			slot = int32(len(o.epSlot))
			o.epSlot[ep] = slot
			o.epSlack = append(o.epSlack, o.epOut[i*S:(i+1)*S]...)
			o.changedEPs = append(o.changedEPs, ep)
			grew = true
			continue
		}
		copy(o.epSlack[int(slot)*S:], o.epOut[i*S:(i+1)*S])
	}
	if grew {
		slices.Sort(o.changedEPs)
	}
	o.dirty = o.dirty[:0]
}

// LaneSlack returns endpoint i's slack in lane s as seen through the overlay.
func (o *Overlay) LaneSlack(s int, i int32) float64 {
	if slot, ok := o.epSlot[i]; ok {
		return o.epSlack[int(slot)*len(o.e.lanes)+s]
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
		TouchedArcs: len(o.arcDelta),
		OverlayPins: len(o.pinQ),
		ChangedEPs:  len(o.epSlot),
	}
}

// Reset discards all overlay state — the session rollback. The base engine
// is untouched. Maps are cleared in place and queue storage is returned to
// the freelist, so a reset-and-reapply cycle does not reallocate.
func (o *Overlay) Reset() {
	for _, od := range o.arcDelta {
		o.distFree = append(o.distFree, od)
	}
	clear(o.arcDelta)
	o.touched = o.touched[:0]
	o.pending = o.pending[:0]
	o.dropDerived()
}

// dropDerived invalidates everything computed from the deltas — recomputed
// queues (their storage goes to the freelist) and re-evaluated slacks —
// keeping all storage for reuse.
func (o *Overlay) dropDerived() {
	for _, q := range o.pinQ {
		o.free = append(o.free, q)
	}
	clear(o.pinQ)
	clear(o.epSlot)
	o.epSlack = o.epSlack[:0]
	o.dirty = o.dirty[:0]
	o.changedEPs = o.changedEPs[:0]
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
// replacement of its base engine (same lanes and TopK). remap maps the old
// engine's arc ids to e's (-1 = arc removed by the edit); nil means identity
// (an insert-only edit appends arcs without renumbering). Arc deltas on
// surviving arcs are kept — SetArcDelay stores absolute per-rf delays, so the
// values remain meaningful under the new engine — re-keyed through remap and
// scheduled for re-propagation; deltas on removed arcs are dropped to the
// freelist. All derived state (queues, slacks) is invalidated like Rebase,
// and the wavefront scratch is discarded because the new engine's level count
// differs. Pin-queue freelist storage survives: its size depends only on
// TopK and the lane count, which a structural edit never changes.
func (o *Overlay) RebaseStructural(e *Engine, remap []int32) {
	o.dropDerived()
	o.scratch = nil

	// Re-key surviving deltas. Old and new id ranges can overlap after a
	// removal compaction, so drain the map first and reinsert.
	oldTouched := append([]int32(nil), o.touched...)
	oldDeltas := make([]*[2]num.Dist, len(oldTouched))
	for i, a := range oldTouched {
		oldDeltas[i] = o.arcDelta[a]
	}
	clear(o.arcDelta)
	o.touched = o.touched[:0]
	o.pending = o.pending[:0]
	for i, a := range oldTouched {
		na := a
		if remap != nil {
			na = remap[a]
		}
		if na < 0 {
			o.distFree = append(o.distFree, oldDeltas[i])
			continue
		}
		o.arcDelta[na] = oldDeltas[i]
		o.touched = append(o.touched, na)
		o.pending = append(o.pending, na)
	}
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
	for _, arc := range o.touched {
		od := o.arcDelta[arc]
		for rf := 0; rf < 2; rf++ {
			e.SetArcDelay(arc, rf, od[rf])
		}
	}
	e.PropagateIncremental(o.touched)
	e.RefreshSlacks()
	if e.hold != nil {
		e.RefreshHoldSlacks()
	}
	o.Reset()
}
