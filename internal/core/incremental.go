package core

// Cone-limited re-propagation. The paper's INSTA always re-propagates the
// full graph — GPU parallelism makes each level O(1), so the total cost is
// just the level count. On a CPU the trade-off differs: after a local
// re-annotation (one estimate_eco batch touches a few dozen arcs) only the
// fan-out cone of the touched arcs can change — in any lane — so
// re-processing that cone level by level and stopping wavefronts whose queues
// converge in every lane is much cheaper. This file holds that one cone wave
// and the engine's entry points to it — what a commit and a structural reseed
// run on the base tensors; an Overlay (overlay.go) runs the same wave over its
// shadowed view to price a what-if without touching them.

// PropagateIncremental re-propagates only the fan-out cone of the given
// arcs, assuming every other annotation is unchanged since the last
// Propagate. A wavefront stops at pins whose Top-K queues come out
// identical. Hold queues, when enabled, are updated over the same cone.
//
// Callers batching SetArcDelay updates pass the touched arc ids here instead
// of calling Propagate.
func (e *Engine) PropagateIncremental(arcs []int32) {
	if len(arcs) == 0 {
		return
	}
	sp := e.tracer.StartArg(kIncremental, "arcs", int64(len(arcs)))
	defer sp.End()
	sc := e.incScratch()
	for _, a := range arcs {
		sc.push(e.lv.Level, e.arcTo[a])
	}
	e.coneWave(kIncremental, sc)
}

// PropagateIncrementalPins is PropagateIncremental seeded by pins instead of
// arcs: every listed pin is recomputed from its (possibly restructured)
// fan-in and the wavefront expands downstream from there. This is the
// re-propagation entry point of Reseed after a structural edit, where the
// changed unit is a pin's fan-in set rather than a single arc's annotation.
func (e *Engine) PropagateIncrementalPins(pins []int32) {
	if len(pins) == 0 {
		return
	}
	sp := e.tracer.StartArg(kIncremental, "pins", int64(len(pins)))
	defer sp.End()
	sc := e.incScratch()
	for _, p := range pins {
		sc.push(e.lv.Level, p)
	}
	e.coneWave(kIncremental, sc)
}

// incScratch returns the engine's reset wave scratch, which retimes its late
// view and — with hold on — its early one in place. All wavefront state lives
// in engine-owned scratch: incremental propagation mutates base tensors, so
// calls are exclusive and the scratch is reused allocation-free across calls
// (the serving layer's commit path runs thousands of these). An in-place
// rebuild overwrites what it is compared against, so every pool participant
// has one snapshot of a whole pin (both transitions, every lane) to copy that
// to first.
func (e *Engine) incScratch() *propScratch {
	if e.inc == nil {
		snaps := make([]queues, e.pool.Workers())
		for i := range snaps {
			snaps[i] = newQueues(2 * e.qstride)
		}
		e.inc = e.newPropScratch(func(id, _ int, p int32, ms *mergeScratch) bool {
			c := e.top.retime(&snaps[id], 1, p, ms)
			if e.hold != nil {
				c = e.hold.retime(&snaps[id], -1, p, ms) || c
			}
			return c
		}, nil, nil)
	}
	e.inc.reset()
	return e.inc
}

// coneWave walks sc's pre-seeded level buckets in order: each level's bucket
// is bound (sc.bind, serially), then retimed through the pool — sc.retime per
// pin: rebuild and compare, launched under the caller's kernel tag — and the
// pins are settled (sc.settle) and those whose queues changed in any lane
// expanded into their fan-out's buckets, serially and in bucket order, so the
// resulting state is bit-identical to a full Propagate for any worker count.
// Pins that come out identical stop their wavefront. The wave holds one set of
// the engine's merge scratch while it runs.
func (e *Engine) coneWave(tag string, sc *propScratch) {
	sc.scratch = e.borrowScratch()
	for l := 0; l < len(sc.buckets); l++ {
		bucket := sc.buckets[l]
		if len(bucket) == 0 {
			continue
		}
		if sc.bind != nil {
			sc.bind(bucket)
		}
		if cap(sc.changed) < len(bucket) {
			sc.changed = make([]bool, len(bucket))
		}
		sc.changed = sc.changed[:len(bucket)]
		sc.bucket = bucket
		e.pool.RunIndexed(tag, l, len(bucket), sc.kernFn)
		for i, p := range bucket {
			if sc.settle != nil {
				sc.settle(i, p, sc.changed[i])
			}
			if !sc.changed[i] {
				continue
			}
			for _, to := range e.foAdj[e.foStart[p]:e.foStart[p+1]] {
				sc.push(e.lv.Level, to)
			}
		}
	}
	e.returnScratch(sc.scratch)
	sc.scratch = nil
}
