package core

// Incremental propagation. The paper's INSTA always re-propagates the full
// graph — GPU parallelism makes each level O(1), so the total cost is just
// the level count. On a CPU the trade-off differs: after a local
// re-annotation (one estimate_eco batch touches a few dozen arcs) only the
// fan-out cone of the touched arcs can change — in any lane — so
// re-processing that cone level by level and stopping wavefronts whose queues
// converge in every lane is much cheaper. This file adds that CPU-oriented
// mode as an ablation against the paper's full-propagation design
// (BenchmarkAblation_IncrementalPropagate).

// PropagateIncremental re-propagates only the fan-out cone of the given
// arcs, assuming every other annotation is unchanged since the last
// Propagate. A wavefront stops at pins whose Top-K queues come out
// identical. Hold queues, when enabled, are updated over the same cone.
//
// Each level's bucket is recomputed through the scheduler pool (pins are
// independent, exactly as in the full forward kernel); the wavefront
// expansion that follows is serial and walks the bucket in order, so the
// resulting state is bit-identical to a full Propagate for any worker count.
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
	e.runIncrementalWave(sc)
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
	e.runIncrementalWave(sc)
}

// incScratch returns the engine's reset incremental-propagation scratch.
// All wavefront state lives in engine-owned scratch: incremental propagation
// mutates base tensors, so calls are exclusive and the scratch is reused
// allocation-free across calls (the serving layer's commit path runs
// thousands of these).
func (e *Engine) incScratch() *propScratch {
	if e.inc == nil {
		e.inc = e.newPropScratch()
	}
	e.inc.reset()
	return e.inc
}

// runIncrementalWave walks the pre-seeded level buckets in order, recomputing
// each bucket through the pool and expanding wavefronts whose queues changed
// in any lane.
func (e *Engine) runIncrementalWave(sc *propScratch) {
	for l := 0; l < len(sc.buckets); l++ {
		bucket := sc.buckets[l]
		if len(bucket) == 0 {
			continue
		}
		if cap(sc.changed) < len(bucket) {
			sc.changed = make([]bool, len(bucket))
		}
		sc.changed = sc.changed[:len(bucket)]
		changed := sc.changed
		// The kernel closure is bound once per scratch and reads its
		// per-launch state through sc — a literal here would escape into the
		// pool's job slot and cost one allocation per level.
		if sc.kernFn == nil {
			sc.kernFn = func(id, lo, hi int) {
				snap := &sc.snaps[id]
				b, ch := sc.bucket, sc.changed
				for i := lo; i < hi; i++ {
					p := b[i]
					e.snapshotPin(snap, &e.top, p)
					e.recompute(&e.top, 1, p)
					c := !e.snapshotEqual(snap, &e.top, p)
					if e.hold != nil {
						e.snapshotPin(snap, &e.hold.queues, p)
						e.recompute(&e.hold.queues, -1, p)
						c = c || !e.snapshotEqual(snap, &e.hold.queues, p)
					}
					ch[i] = c
				}
			}
		}
		sc.bucket = bucket
		e.pool.RunIndexed(kIncremental, l, len(bucket), sc.kernFn)
		for i, p := range bucket {
			if changed[i] {
				for _, to := range e.foAdj[e.foStart[p]:e.foStart[p+1]] {
					sc.push(e.lv.Level, to)
				}
			}
		}
	}
}

// snapshotPin copies pin p's rows of q — both transitions, every lane — into
// snap, rf-major, to be compared after a recompute.
func (e *Engine) snapshotPin(snap, q *queues, p int32) {
	for rf := 0; rf < 2; rf++ {
		snap.copyFrom(rf*e.qstride, q, e.base(rf, p), e.qstride)
	}
}

// snapshotEqual reports whether pin p's rows of q still hold snap's bits.
func (e *Engine) snapshotEqual(snap, q *queues, p int32) bool {
	for rf := 0; rf < 2; rf++ {
		if !snap.equal(rf*e.qstride, q, e.base(rf, p), e.qstride) {
			return false
		}
	}
	return true
}
