package core

import (
	"math"

	"insta/internal/liberty"
)

// queues is one set of Top-K tensors: per slot an arrival distribution and
// its startpoint (noSP = empty), as in the paper's queue. What a queue is
// ordered by — the late corner, or the negated early corner for hold — is not
// stored: every site that compares entries derives it from (mean, std) through
// orderKey. The engine's late and early state, an overlay's row chunks and the
// in-place wave's snapshots all have this shape.
type queues struct {
	mean, std []float64
	sp        []int32
}

// orderKey is the key a queue is kept descending by: sign*(m + ns*sigma) with
// ns = sign*nSigma — the late corner for sign +1, the negated early corner
// for sign -1 (hold keeps the K smallest). It is the one place the expression
// lives: a key is recomputed from the stored operands wherever two entries are
// compared, so every comparison sees the same bits.
func orderKey(m, s, sign, ns float64) float64 { return sign * (m + ns*s) }

// newQueues allocates n slots; the two float planes share one slab.
func newQueues(n int) queues {
	buf := make([]float64, 2*n)
	return queues{
		mean: buf[0:n:n],
		std:  buf[n : 2*n : 2*n],
		sp:   make([]int32, n),
	}
}

// bytes is the size of the allocated planes.
func (q *queues) bytes() int64 {
	return int64(len(q.mean)+len(q.std))*8 + int64(len(q.sp))*4
}

// copyFrom copies n slots of src starting at from into q at dst.
func (q *queues) copyFrom(dst int, src *queues, from, n int) {
	copy(q.mean[dst:dst+n], src.mean[from:from+n])
	copy(q.std[dst:dst+n], src.std[from:from+n])
	copy(q.sp[dst:dst+n], src.sp[from:from+n])
}

// restride returns a copy of q re-laid from row stride oldCap to newCap pins,
// keeping the first pins rows of each rf block; stride is the slots per row.
func (q *queues) restride(oldCap, newCap, pins, stride int) queues {
	nq := newQueues(2 * newCap * stride)
	for rf := 0; rf < 2; rf++ {
		nq.copyFrom(rf*newCap*stride, q, rf*oldCap*stride, pins*stride)
	}
	return nq
}

// equalLive reports whether n slots of q at a and of o at b hold the same
// queues: the same startpoint in every slot and the same (mean, sigma) in every
// live one. A merge never writes past the live entries it leaves, so an empty
// slot's mean and sigma are whatever its storage held before — the queue's own
// older entries when it was rebuilt in place, another cone's when the row was
// recycled — and say nothing about the queue.
func (q *queues) equalLive(a int, o *queues, b, n int) bool {
	qsp, osp := q.sp[a:a+n], o.sp[b:b+n]
	qm, om := q.mean[a:a+n], o.mean[b:b+n]
	qs, os := q.std[a:a+n], o.std[b:b+n]
	for i, sp := range qsp {
		if sp != osp[i] || sp != noSP && (qm[i] != om[i] || qs[i] != os[i]) {
			return false
		}
	}
	return true
}

// Propagate runs the forward kernel: level-synchronous Top-K statistical
// arrival propagation with unique startpoints (Algorithms 1 and 2), carrying
// every lane in one traversal — the level count, the fan-in walks and the
// dispatch are paid once, not S times. Pins within a level are independent
// and are distributed over the engine's persistent scheduler pool by atomic
// chunk claiming — the goroutine analogue of one CUDA thread per output pin
// (Fig. 3).
func (e *Engine) Propagate() {
	e.sweep(kForward, &e.top, 1)
	if e.hold != nil {
		e.sweep(kHold, &e.hold.view, -1)
	}
}

// sweep rebuilds every pin's queues in v (with recompute's sign) over the
// whole level schedule, one launch of a bound kernel per fused level group,
// on one borrowed set of merge scratch.
func (e *Engine) sweep(tag string, v *view, sign float64) {
	sp := e.tracer.StartArg(tag, "levels", int64(e.lv.NumLevels))
	e.run.v, e.run.sign, e.run.scratch = v, sign, e.borrowScratch()
	for _, g := range e.levelPlan() {
		lsp := sp.ChildArg("level", "level", int64(g.lo))
		if g.hi == g.lo+1 {
			e.run.pins = e.lv.Nodes(g.lo)
			e.pool.RunIndexed(tag, g.lo, g.spans, e.kern.level)
		} else {
			e.run.lo, e.run.hi = g.lo, g.hi
			e.pool.RunIndexed(tag, g.lo, g.spans, e.kern.fused)
		}
		lsp.End()
	}
	e.returnScratch(e.run.scratch)
	e.run.scratch = nil
	sp.End()
}

// recompute rebuilds pin p's queues as seen through v, both transitions in
// every lane — a late view with sign +1, the early one (hold) with sign -1:
// startpoints reseed their launch arrival, single-fan-in unate pins copy their
// parent, everything else merges its fan-in on the calling participant's
// scratch ms. Arc delays, parent queues and the destination rows all resolve
// through v, so the full passes, the incremental wave and an overlay's preview
// run this one walk.
func (v *view) recompute(sign float64, p int32, ms *mergeScratch) {
	e := v.e
	if sp := e.spOfPin[p]; sp >= 0 {
		v.initStartpoint(p, sp)
		return
	}
	if pos := e.faninStart[p]; e.faninStart[p+1]-pos == 1 && liberty.Unate(e.faninSense[pos]) != liberty.NonUnate {
		v.copyFanin(sign, p, pos)
		return
	}
	v.mergeFanin(sign, p, ms)
}

// copyFanin is mergeFanin for a pin whose fan-in is the one unate arc at CSR
// position pos: each of its queues is one parent merged into an empty queue,
// which needs neither a live count carried nor a startpoint index.
func (v *view) copyFanin(sign float64, p, pos int32) {
	e := v.e
	k := e.opt.TopK
	ns := sign * e.nSigma
	arc := e.faninArc[pos]
	parent := e.faninFrom[pos]
	kind := e.arcKind[arc]
	flip := 0
	if liberty.Unate(e.faninSense[pos]) == liberty.NegativeUnate {
		flip = 1
	}
	for rf := 0; rf < 2; rf++ {
		am0, as0 := v.arcDelay(rf, arc)
		q, b := v.queues(rf, p)
		pq, pb := v.queues(rf^flip, parent)
		for s := range e.lanes {
			am := am0 * e.scaleMean[kind][s]
			as := as0 * e.scaleStd[kind][s]
			q.blankTail(b, q.mergeEmpty(b, k, pq, pb, am, as, sign, ns), k)
			b, pb = b+k, pb+k
		}
	}
}

// mergeFanin rebuilds pin p's queues from its parents' queues, all as seen
// through v, with recompute's sign. Per transition the fan-in CSR is walked
// once, gathering the pin's contributions — parent row, nominal arc delay,
// kind, each resolved through v once — into ms.fan; then the walk is
// lane-outer: one lane's queue is finished before the next is started, so one
// scalar live count and the participant's one startpoint index serve any lane
// count. For a fixed lane the insertion order over (arc position, input
// transition, parent slot) does not depend on S, which is what makes lane s
// bit-identical to a single-lane engine over scaled tables.
//
// The merge is fill-tracked: the queue's live count rides along in a local,
// inserts touch live slots only, and the unused tail is blanked once at the
// end — the packed-tail contract every reader relies on (n live entries,
// descending, unique startpoints, then noSP).
func (v *view) mergeFanin(sign float64, p int32, ms *mergeScratch) {
	e := v.e
	k := e.opt.TopK
	ns := sign * e.nSigma
	lo, hi := e.faninStart[p], e.faninStart[p+1]
	for rf := 0; rf < 2; rf++ {
		fan := ms.fan[:0]
		for pos := lo; pos < hi; pos++ {
			arc := e.faninArc[pos]
			am, as := v.arcDelay(rf, arc)
			inRFs, nrf := liberty.Unate(e.faninSense[pos]).InRFs(rf)
			for ri := 0; ri < nrf; ri++ {
				pq, pb := v.queues(inRFs[ri], e.faninFrom[pos])
				fan = append(fan, faninContrib{q: pq, b: pb, am: am, as: as, kind: e.arcKind[arc]})
			}
		}
		ms.fan = fan
		q, b := v.queues(rf, p)
		for s := range e.lanes {
			n := 0
			for i := range fan {
				c := &fan[i]
				am := c.am * e.scaleMean[c.kind][s]
				as := c.as * e.scaleStd[c.kind][s]
				n = q.merge(b, n, k, c.q, c.b+s*k, am, as, sign, ns, &ms.spIndex)
			}
			q.blankTail(b, n, k)
			b += k
		}
	}
}

// initStartpoint seeds a startpoint pin's queues in every lane with its launch
// arrival distribution (clock network arrival or input delay); lanes derate
// arcs, not launches. A one-entry queue is in order under either sign.
func (v *view) initStartpoint(p, sp int32) {
	e := v.e
	k := e.opt.TopK
	m, sg := e.spMean[sp], e.spStd[sp]
	for rf := 0; rf < 2; rf++ {
		q, b := v.queues(rf, p)
		for end := b + e.qstride; b < end; b += k {
			q.mean[b] = m
			q.std[b] = sg
			q.sp[b] = sp
			q.blankTail(b, 1, k)
		}
	}
}

// clearQueue empties a run of queue slots (possibly several lanes' contiguous
// blocks at once): a slot is empty when its startpoint is noSP, whatever its
// mean and sigma hold.
func clearQueue(sps []int32) {
	for i := range sps {
		sps[i] = noSP
	}
}

// blankTail empties slots [n, k) of the queue at b: the unused tail a merge
// that left n live entries owes its readers.
func (q *queues) blankTail(b, n, k int) {
	clearQueue(q.sp[b+n : b+k])
}

// mergeEmpty fills the empty k-slot queue of q at b from one parent queue —
// the packed k-slot queue of src at pb, every entry delayed by the arc's
// (am, as) — and returns the live count. Entries are ordered by orderKey under
// (sign, ns); slots past the live count are not written.
//
// A parent merged into an empty queue brings only startpoints the queue does
// not hold (its own are unique), so Algorithm 2 degenerates to a shifted copy
// of the parent restored to descending order: RSS composition can reorder
// entries with different mean/sigma trade-offs, and the stable insertion sort
// leaves them exactly where one insert per entry would. That is the whole
// merge of a single-fan-in pin — the paper's "input pins", handled without a
// kernel — and the first parent's share of every other pin.
func (q *queues) mergeEmpty(b, k int, src *queues, pb int, am, as, sign, ns float64) int {
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	sps := q.sp[b : b+k]
	pmean := src.mean[pb : pb+k]
	pstds := src.std[pb : pb+k]
	n := 0
	sorted, prev := true, math.Inf(1)
	for kk, psp := range src.sp[pb : pb+k] {
		if psp == noSP {
			break // queues are packed: empties trail
		}
		m := pmean[kk] + am
		sg := math.Sqrt(pstds[kk]*pstds[kk] + as*as)
		a := orderKey(m, sg, sign, ns)
		sorted = sorted && a <= prev
		mean[n], std[n], sps[n] = m, sg, psp
		prev = a
		n++
	}
	if sorted {
		return n
	}
	for i := 1; i < n; i++ {
		m, sg, sp := mean[i], std[i], sps[i]
		a := orderKey(m, sg, sign, ns)
		j := i
		for j > 0 && orderKey(mean[j-1], std[j-1], sign, ns) < a {
			mean[j], std[j], sps[j] = mean[j-1], std[j-1], sps[j-1]
			j--
		}
		mean[j], std[j], sps[j] = m, sg, sp
	}
	return n
}

// merge folds one parent queue — the packed k-slot queue of src at pb, every
// entry delayed by the arc's (am, as) — into the k-slot queue of q at b, whose
// first n slots are live, and returns the new live count. Slots from n on are
// never read, so the destination needs no clearing beforehand. A queue is
// built by calling merge for each of its parents in turn, starting from n = 0,
// with the same index ix throughout.
//
// The first non-empty parent is mergeEmpty's shifted copy and does not touch
// the index. From the second on, merge is Algorithm 2 per parent entry — the
// maintenance of a descending fixed-size list keyed by unique startpoints —
// with ix (loaded from the live entries when that second contribution arrives,
// kept exact through every write since) standing in for Step 1's scan of the
// queue: a queued startpoint is compared with its own entry and, when larger,
// bubbles up from that entry's slot; a new one enters after the live entries —
// displacing the minimum once the queue is full — and shifts up into place.
// The writes, and so every tie-break, are those of the scanning algorithm
// (queue_ref_test.go keeps it as the oracle). Entries are ordered by orderKey
// under (sign, ns).
func (q *queues) merge(b, n, k int, src *queues, pb int, am, as, sign, ns float64, ix *spIndex) int {
	if n == 0 {
		ix.loaded = false // whatever ix holds describes another queue
		return q.mergeEmpty(b, k, src, pb, am, as, sign, ns)
	}
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	sps := q.sp[b : b+k]
	pmean := src.mean[pb : pb+k]
	pstds := src.std[pb : pb+k]
	if !ix.loaded {
		ix.load(sps[:n])
	}
	at, tag := ix.at, uint64(ix.epoch)<<slotBits
	// The full queue's minimum key rides in a register across the parent's
	// entries: it changes only when an entry lands.
	var floor float64
	if n == k {
		floor = orderKey(mean[k-1], std[k-1], sign, ns)
	}
	for kk, psp := range src.sp[pb : pb+k] {
		if psp == noSP {
			break
		}
		m := pmean[kk] + am
		pstd := pstds[kk]
		// sigma <= pstd+as bounds the entry's key from above, which settles the
		// bulk of contributions without a sqrt: against the full queue's minimum
		// here (a startpoint that is queued sits at or above it), against the
		// startpoint's own entry below.
		bound := orderKey(m, pstd+as, sign, ns)
		if n == k && bound <= floor {
			continue
		}
		var sg, a float64
		var j int
		if slot := at[psp] ^ tag; slot < 1<<slotBits {
			// Step 1: the startpoint is queued at slot j; only a larger key
			// replaces its entry, bubbling up from there.
			j = int(slot)
			cur := orderKey(mean[j], std[j], sign, ns)
			if bound <= cur {
				continue
			}
			sg = math.Sqrt(pstd*pstd + as*as)
			if a = orderKey(m, sg, sign, ns); a <= cur {
				continue
			}
		} else {
			// Step 2: a new startpoint enters after the live entries, or in
			// place of the minimum it beats once the queue is full.
			sg = math.Sqrt(pstd*pstd + as*as)
			a = orderKey(m, sg, sign, ns)
			if n < k {
				j = n
				n++
			} else if a <= floor {
				continue
			} else {
				j = k - 1
				at[sps[j]] = 0
			}
		}
		for j > 0 && orderKey(mean[j-1], std[j-1], sign, ns) < a {
			mean[j], std[j], sps[j] = mean[j-1], std[j-1], sps[j-1]
			at[sps[j]] = tag | uint64(j)
			j--
		}
		mean[j], std[j], sps[j] = m, sg, psp
		at[psp] = tag | uint64(j)
		if n == k {
			floor = orderKey(mean[k-1], std[k-1], sign, ns)
		}
	}
	return n
}

// LaneTopEntries returns pin p's Top-K arrival entries for transition rf in
// lane s as (mean, std, sp) triples in descending corner order, for
// inspection and testing; the live entries end at the first sp < 0.
func (e *Engine) LaneTopEntries(rf int, p int32, s int) (mean, std []float64, sps []int32) {
	k := e.opt.TopK
	q, b := e.top.queues(rf, p)
	b += s * k
	return q.mean[b : b+k], q.std[b : b+k], q.sp[b : b+k]
}

// TopEntries is LaneTopEntries for lane 0.
func (e *Engine) TopEntries(rf int, p int32) (mean, std []float64, sps []int32) {
	return e.LaneTopEntries(rf, p, 0)
}
