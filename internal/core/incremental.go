package core

// Cone-limited re-propagation. The paper's INSTA always re-propagates the
// full graph — GPU parallelism makes each level O(1), so the total cost is
// just the level count. On a CPU the trade-off differs: after a local
// re-annotation (one estimate_eco batch touches a few dozen arcs) only the
// fan-out cone of the touched arcs can change — in any lane — so
// re-processing that cone level by level and stopping wavefronts whose queues
// converge in every lane is much cheaper. This file holds that one cone wave
// and the engine's in-place entry to it, which a structural reseed and a hold
// engine's commit run on the base tensors; an Overlay (overlay.go) runs the
// same wave over its shadowed view, and a commit adopts what it computed.

// propagateIncremental re-propagates only the fan-out cone of the given arcs
// in place, assuming every other annotation is unchanged since the last
// Propagate. A wavefront stops at pins whose Top-K queues come out identical.
// Hold queues, when enabled, are updated over the same cone. Its one caller,
// a hold engine's commit, has adopted the late rows already. It returns the
// endpoints whose pins changed, valid until the engine's next wave.
func (e *Engine) propagateIncremental(arcs []int32) []int32 {
	sp := e.opt.Tracer.StartArg(kIncremental, "arcs", int64(len(arcs)))
	defer sp.End()
	sc := e.incScratch()
	sc.seedArcs(e, arcs)
	e.coneWave(kIncremental, sc)
	return sc.eps
}

// incScratch returns the engine's reset wave scratch, which updates its late
// view and — with hold on — its early one in place. The wave mutates base
// tensors, so calls are exclusive and the scratch is the engine's, reused
// allocation-free. Each view rebuilds the pin into the participant's merge
// scratch (region waveRegion) and, when it changed, copies that back over the
// row.
func (e *Engine) incScratch() *propScratch {
	if e.inc == nil {
		e.inc = e.newPropScratch(func(_ int, p int32, ms *mergeScratch) bool {
			dst, n := ms.row(e, waveRegion, int(e.rows[p].k)), e.rowSlots(p)
			c := e.top.rebuild(1, p, ms, dst)
			if c {
				e.top.row(p).store(dst, n)
			}
			if e.hold != nil && e.hold.rebuild(-1, p, ms, dst) {
				e.hold.row(p).store(dst, n)
				c = true
			}
			return c
		}, nil, nil)
	}
	e.inc.reset()
	return e.inc
}

// coneWave walks sc's pre-seeded level buckets in order: each level's bucket
// is bound (sc.bind, serially), then rebuilt through the pool — sc.rebuild per
// stored pin: view.rebuild into a row the pin does not show and the compare
// with the one it does, launched under the caller's kernel tag — and the pins
// are settled (sc.settle) and those whose queues changed in any lane expanded
// into their fan-out's buckets — a changed endpoint pin's endpoint listed in
// sc.eps, for its owner's slack pass — serially and in bucket order, so the
// resulting state is bit-identical to a full Propagate for any worker count.
// Pins that come out identical stop their wavefront; a derived pin always
// passes it on to its one child, which replays it; a dead pin never enters a
// bucket — no caller seeds one, and the wave stops at it. The wave holds one set of
// the engine's merge scratch while it runs. Its three callers — a hold
// engine's commit (propagateIncremental), a structural edit's reseed and an
// Overlay's preview — differ only in the hooks.
func (e *Engine) coneWave(tag string, sc *propScratch) {
	st := e.st
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
				sc.settle(i, p)
			}
			if !sc.changed[i] {
				continue
			}
			if ep := st.EpOfPin[p]; ep >= 0 {
				sc.eps = append(sc.eps, ep)
			}
			for _, to := range st.FoAdj[st.FoStart[p]:st.FoStart[p+1]] {
				if !e.rows[to].dead {
					sc.push(st.LvLevel, to)
				}
			}
		}
	}
	e.returnScratch(sc.scratch)
	sc.scratch = nil
}
