package core

// Cone-limited re-propagation. The paper's INSTA always re-propagates the
// full graph — GPU parallelism makes each level O(1), so the total cost is
// just the level count. On a CPU the trade-off differs: after a local
// re-annotation (one estimate_eco batch touches a few dozen arcs) only the
// fan-out cone of the touched arcs can change — in any lane — so
// re-processing that cone level by level and stopping wavefronts whose queues
// converge in every lane is much cheaper. This file holds that one cone wave
// and its in-place scratch, which only a structural reseed (Patch) runs on the
// base tensors; an Overlay (overlay.go) runs it over its shadowed views, late
// and early, and a commit adopts what it computed.

// incScratch returns the engine's reset wave scratch, which updates its late
// view and — with hold on — its early one in place. The wave mutates base
// tensors, so calls are exclusive and the scratch is the engine's, reused
// allocation-free. Each view rebuilds the pin into the participant's merge
// scratch (region waveRegion) and, when it changed, copies that back over the
// row.
func (e *Engine) incScratch() *propScratch {
	if e.inc == nil {
		e.inc = e.newPropScratch(func(_ int, p int32, ms *mergeScratch) (m uint8) {
			dst, n := ms.row(e, waveRegion, int(e.rows[p].k)), e.rowSlots(p)
			if e.top.rebuild(1, p, ms, dst) {
				e.top.row(p).store(dst, n)
				m = lateMoved
			}
			if e.hold != nil && e.hold.rebuild(-1, p, ms, dst) {
				e.hold.row(p).store(dst, n)
				m |= earlyMoved
			}
			return m
		}, nil, nil)
	}
	e.inc.reset()
	return e.inc
}

// coneWave walks sc's pre-seeded level buckets in order: each level's bucket
// is bound (sc.bind, serially), then rebuilt through the pool — sc.rebuild per
// stored pin: view.rebuild into a row the pin does not show and the compare
// with the one it does, launched under the caller's kernel tag — and the pins
// are settled (sc.settle) and those whose queues changed in any lane of either
// view expanded into their fan-out's buckets — a changed endpoint pin's
// endpoint listed in sc.eps if its late queues changed and in sc.holdEps if
// its early ones did, for its owner's slack passes — serially and in bucket
// order, so the resulting state is bit-identical to a full Propagate for any
// worker count.
// Pins that come out identical stop their wavefront; a derived pin always
// passes it on to its one child, which replays it; a dead pin never enters a
// bucket — no caller seeds one, and the wave stops at it. The wave holds one set of
// the engine's merge scratch while it runs. Its two callers — a structural
// edit's reseed and an Overlay's preview — differ only in the hooks.
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
			sc.changed = make([]uint8, len(bucket))
		}
		sc.changed = sc.changed[:len(bucket)]
		sc.bucket = bucket
		e.pool.RunIndexed(tag, l, len(bucket), sc.kernFn)
		for i, p := range bucket {
			if sc.settle != nil {
				sc.settle(i, p)
			}
			m := sc.changed[i]
			if m == 0 {
				continue
			}
			if ep := st.EpOfPin[p]; ep >= 0 && m&lateMoved != 0 {
				sc.eps = append(sc.eps, ep)
			}
			if ep := st.EpOfPin[p]; ep >= 0 && m&earlyMoved != 0 {
				sc.holdEps = append(sc.holdEps, ep)
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
