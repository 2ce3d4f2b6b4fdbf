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
// state bit-identical to the overlay's preview (both recompute the same cone
// with the same merge arithmetic in the same order).
//
// Concurrency contract: an Overlay itself is single-threaded (the serving
// layer serializes per-session), but any number of overlays may evaluate in
// parallel over one frozen base as long as nothing mutates that base — the
// serving layer enforces this with a reader/writer lock around commits.

import (
	"math"
	"slices"

	"insta/internal/liberty"
	"insta/internal/num"
)

// Overlay is a copy-on-write what-if view over a propagated base engine.
//
// Allocation discipline (DESIGN.md §12): the overlay is built to re-evaluate
// the *same* cone repeatedly without allocating — Reset and Rebase clear the
// sparse maps in place and return pin-queue storage to a freelist instead of
// reallocating, the wavefront state lives in a per-overlay propScratch, and
// endpoint bookkeeping uses reusable slices. A session's steady-state
// apply→propagate→read loop therefore settles at zero allocations per
// operation once its maps have grown to the cone's footprint.
type Overlay struct {
	e *Engine

	// Sparse arc-delay overlay: arc id -> per-rf nominal delay distributions
	// (every lane sees them through its scale factors).
	arcDelta map[int32]*[2]num.Dist
	touched  []int32 // overlaid arc ids in first-annotation order
	pending  []int32 // arcs annotated since the last propagate
	distFree []*[2]num.Dist

	// Sparse pin-queue overlay: pins whose Top-K queues were recomputed
	// under the overlay, each holding both transitions and every lane
	// flattened rf*S*K + s*K + k like one row pair of the engine's tensors.
	// Entries may be bit-equal to the base (a wavefront that converged);
	// reads through them are still correct.
	pinQ map[int32]*queues
	free []*queues // released queue storage, reused before allocating

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

	// Persistent kernel closures: a closure literal passed to the pool
	// escapes (the job slot retains it), so building one per level would
	// cost an allocation per launch. These are bound once and read their
	// per-launch state (kernBucket, scratch, dirty, epOut) through o.
	kernBucket []int32
	kernFn     func(id, lo, hi int)
	slackFn    func(id, lo, hi int)
}

// NewOverlay creates an empty overlay over e. The base engine must be fully
// propagated and slack-evaluated (Run) before the first ApplyArcDelay, and
// must stay frozen while the overlay evaluates.
func NewOverlay(e *Engine) *Overlay {
	return &Overlay{
		e:        e,
		arcDelta: make(map[int32]*[2]num.Dist),
		pinQ:     make(map[int32]*queues),
		epSlot:   make(map[int32]int32),
	}
}

// seededPinOverlay returns queue storage for pin p — from the freelist when
// possible — preloaded with the base's queues. recomputePin's change
// detection compares against the previously *visible* queues, and a pin
// touched for the first time this Propagate was showing the base's — recycled
// freelist storage (or fresh zeroed storage) must not stand in for them, or a
// wavefront could stop early when stale content happens to match the
// recomputed result (a Reset followed by reapplying identical deltas often
// hands pins back their own old storage).
func (o *Overlay) seededPinOverlay(p int32) *queues {
	var q *queues
	if n := len(o.free); n > 0 {
		q = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		nq := newQueues(2 * o.e.qstride)
		q = &nq
	}
	o.e.snapshotPin(q, &o.e.top, p)
	return q
}

// releasePins returns every overlaid pin queue to the freelist and empties
// the pin map in place.
func (o *Overlay) releasePins() {
	for _, q := range o.pinQ {
		o.free = append(o.free, q)
	}
	clear(o.pinQ)
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
		od[0] = num.Dist{Mean: o.e.arcMean[0][arc], Std: o.e.arcStd[0][arc]}
		od[1] = num.Dist{Mean: o.e.arcMean[1][arc], Std: o.e.arcStd[1][arc]}
		o.arcDelta[arc] = od
		o.touched = append(o.touched, arc)
	}
	od[rf] = d
	// Dedupe pending against re-annotation of an already-pending arc.
	for _, a := range o.pending {
		if a == arc {
			return
		}
	}
	o.pending = append(o.pending, arc)
}

// ArcDelay returns the arc's delay as seen through the overlay.
func (o *Overlay) ArcDelay(arc int32, rf int) num.Dist {
	if od := o.arcDelta[arc]; od != nil {
		return od[rf]
	}
	return o.e.ArcDelay(arc, rf)
}

// arcDelay is the hot-path variant of ArcDelay.
func (o *Overlay) arcDelay(rf int, arc int32) (mean, std float64) {
	if od := o.arcDelta[arc]; od != nil {
		return od[rf].Mean, od[rf].Std
	}
	return o.e.arcMean[rf][arc], o.e.arcStd[rf][arc]
}

// queues returns the tensors holding pin p's Top-K queues for transition rf
// as seen through the overlay — the overlay's recomputed copy if present, else
// the base engine's frozen tensors — and the offset of lane 0's block in
// them; lane s follows at +s*K.
func (o *Overlay) queues(rf int, p int32) (*queues, int) {
	if q := o.pinQ[p]; q != nil {
		return q, rf * o.e.qstride
	}
	return &o.e.top, o.e.base(rf, p)
}

// Propagate re-propagates the fan-out cone of every arc annotated since the
// last call, writing recomputed queues into the overlay only. The wavefront
// walks the level schedule exactly like PropagateIncremental — each level's
// bucket is recomputed through the base engine's scheduler pool, and pins
// whose queues come out identical to their previously visible state stop the
// expansion — so the overlay state is bit-identical to what committing the
// same deltas would produce on the base.
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
		o.scratch = e.newPropScratch()
	}
	sc := o.scratch
	sc.reset()
	for _, a := range arcs {
		sc.push(e.lv.Level, e.arcTo[a])
	}

	for l := 0; l < len(sc.buckets); l++ {
		bucket := sc.buckets[l]
		if len(bucket) == 0 {
			continue
		}
		// Startpoint pins reseed constants and never change; drop them
		// before the kernel so the wavefront stops there, as the base
		// incremental path does implicitly.
		live := bucket[:0]
		for _, p := range bucket {
			if e.spOfPin[p] < 0 {
				live = append(live, p)
			}
		}
		bucket = live
		if len(bucket) == 0 {
			continue
		}
		// Bind overlay queue storage serially: map writes must not run
		// inside the kernel (parents at lower levels are read concurrently
		// through the same map).
		for _, p := range bucket {
			if o.pinQ[p] == nil {
				o.pinQ[p] = o.seededPinOverlay(p)
			}
		}
		if cap(sc.changed) < len(bucket) {
			sc.changed = make([]bool, len(bucket))
		}
		sc.changed = sc.changed[:len(bucket)]
		changed := sc.changed
		if o.kernFn == nil {
			o.kernFn = func(id, lo, hi int) {
				snap := &o.scratch.snaps[id]
				b, ch := o.kernBucket, o.scratch.changed
				for i := lo; i < hi; i++ {
					ch[i] = o.recomputePin(b[i], snap)
				}
			}
		}
		o.kernBucket = bucket
		e.pool.RunIndexed(KernelOverlay, l, len(bucket), o.kernFn)
		for i, p := range bucket {
			if !changed[i] {
				continue
			}
			// Each pin enters at most one bucket per Propagate (queued
			// dedupes) and maps to at most one endpoint, so dirty never
			// holds duplicates within a call.
			if ep := e.epOfPin[p]; ep >= 0 {
				o.dirty = append(o.dirty, ep)
			}
			for _, to := range e.foAdj[e.foStart[p]:e.foStart[p+1]] {
				sc.push(e.lv.Level, to)
			}
		}
	}
	o.evalDirtyEndpoints()
}

// recomputePin rebuilds pin p's Top-K queues, every lane, inside the overlay
// from its fan-in as seen through the overlay, and reports whether the result
// differs from the previously visible queues (snapshotted into snap) in any
// lane. The walk is the engine's mergeFanin with the arc delays and parent
// queues resolved through the overlay, over the same per-parent merge — so a
// preview holds the bits a commit will. The comparison is exact on what a
// queue means: a merge never writes past the live entries it leaves, so two
// rows differ exactly when their live entries or live counts do.
func (o *Overlay) recomputePin(p int32, snap *queues) bool {
	e := o.e
	k := e.opt.TopK
	S := len(e.lanes)
	// The previously visible queues are already in the overlay's storage:
	// seeded from the base on first touch, or recomputed by an earlier batch.
	q := o.pinQ[p]
	snap.copyFrom(0, q, 0, 2*e.qstride)

	lo, hi := e.faninStart[p], e.faninStart[p+1]
	var fill [laneTile]int
	for rf := 0; rf < 2; rf++ {
		qb := rf * e.qstride
		for s0 := 0; s0 < S; s0 += laneTile {
			s1 := min(s0+laneTile, S)
			n := fill[:s1-s0]
			clear(n)
			for pos := lo; pos < hi; pos++ {
				arc := e.faninArc[pos]
				parent := e.faninFrom[pos]
				kind := e.arcKind[arc]
				am0, as0 := o.arcDelay(rf, arc)
				inRFs, nrf := liberty.Unate(e.faninSense[pos]).InRFs(rf)
				for ri := 0; ri < nrf; ri++ {
					pq, pb0 := o.queues(inRFs[ri], parent)
					for s := s0; s < s1; s++ {
						am := am0 * e.scaleMean[kind][s]
						as := as0 * e.scaleStd[kind][s]
						n[s-s0] = q.merge(qb+s*k, n[s-s0], k, pq, pb0+s*k, am, as, 1, e.nSigma)
					}
				}
			}
			for s := s0; s < s1; s++ {
				q.blankTail(qb+s*k, n[s-s0], k)
			}
		}
	}
	return !q.equal(0, snap, 0, 2*e.qstride)
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
			e := o.e
			k := e.opt.TopK
			S := len(e.lanes)
			dirty, out := o.dirty, o.epOut
			for i := lo; i < hi; i++ {
				ep := dirty[i]
				p := e.epPin[ep]
				for s := 0; s < S; s++ {
					best := math.Inf(1)
					for rf := 0; rf < 2; rf++ {
						q, b := o.queues(rf, p)
						b += s * k
						for kk := 0; kk < k; kk++ {
							sp := q.sp[b+kk]
							if sp == noSP {
								break
							}
							adj := e.excLookup(e.spPin[sp], p)
							if adj.False {
								continue
							}
							req := e.epBase[rf][ep] +
								float64(adj.CycleCount()-1)*e.period +
								e.credit(e.spNode[sp], e.epNode[ep])
							if sl := req - q.arr[b+kk]; sl < best {
								best = sl
							}
						}
					}
					out[i*S+s] = best
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
// queues and re-evaluated slacks — keeping its storage for reuse.
func (o *Overlay) dropDerived() {
	o.releasePins()
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
	o.e = e
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
