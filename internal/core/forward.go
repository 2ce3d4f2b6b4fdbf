package core

import (
	"math"

	"insta/internal/liberty"
)

// queues is one set of Top-K tensors: per slot an arrival distribution and
// its startpoint (noSP = empty), as in the paper's queue. What a queue is
// ordered by — the late corner, or the negated early corner for hold — is not
// stored: every site that compares entries derives it from (mean, std) through
// orderKey. The engine's late and early state, an overlay's per-pin copies and
// the wavefront snapshots all have this shape.
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

// equal reports whether n slots of q at a and of o at b hold the same bits.
func (q *queues) equal(a int, o *queues, b, n int) bool {
	for i := 0; i < n; i++ {
		if q.sp[a+i] != o.sp[b+i] || q.mean[a+i] != o.mean[b+i] || q.std[a+i] != o.std[b+i] {
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
// whole level schedule, one launch of a bound kernel per fused level group.
func (e *Engine) sweep(tag string, v *view, sign float64) {
	sp := e.tracer.StartArg(tag, "levels", int64(e.lv.NumLevels))
	e.run.v, e.run.sign = v, sign
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
	sp.End()
}

// laneTile is how many lanes' live counts a merge keeps on its stack; an
// engine with more lanes walks the pin's fan-in once per tile of this many.
const laneTile = 16

// recompute rebuilds pin p's queues as seen through v, both transitions in
// every lane — a late view with sign +1, the early one (hold) with sign -1:
// startpoints reseed their launch arrival, single-fan-in unate pins copy their
// parent, everything else merges its fan-in. Arc delays, parent queues and the
// destination rows all resolve through v, so the full passes, the incremental
// wave and an overlay's preview run this one walk.
func (v *view) recompute(sign float64, p int32) {
	e := v.e
	if sp := e.spOfPin[p]; sp >= 0 {
		v.initStartpoint(p, sp)
		return
	}
	if pos := e.faninStart[p]; e.faninStart[p+1]-pos == 1 && liberty.Unate(e.faninSense[pos]) != liberty.NonUnate {
		v.copyFanin(sign, p, pos)
		return
	}
	v.mergeFanin(sign, p)
}

// copyFanin is mergeFanin for a pin whose fan-in is the one unate arc at CSR
// position pos: each of its queues is one parent merged into an empty queue,
// so no live counts need carrying.
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
			q.blankTail(b, q.merge(b, 0, k, pq, pb, am, as, sign, ns), k)
			b, pb = b+k, pb+k
		}
	}
}

// mergeFanin rebuilds pin p's queues from its parents' queues, all as seen
// through v, with recompute's sign. The fan-in CSR is walked once per
// transition; the lane loop sits inside the per-arc contribution, resolving
// each lane's arc delay from the per-kind scale factors. For a fixed lane the
// insertion order over (arc position, input transition, parent slot) does not
// depend on S, which is what makes lane s bit-identical to a single-lane
// engine over scaled tables.
//
// The merge is fill-tracked: each destination queue's live count rides along
// in a stack-local counter, inserts touch live slots only, and the unused
// tail is blanked once at the end — the packed-tail contract every reader
// relies on (n live entries, descending, unique startpoints, then noSP).
func (v *view) mergeFanin(sign float64, p int32) {
	e := v.e
	k := e.opt.TopK
	S := len(e.lanes)
	ns := sign * e.nSigma
	lo, hi := e.faninStart[p], e.faninStart[p+1]
	var fill [laneTile]int
	for rf := 0; rf < 2; rf++ {
		q, qb := v.queues(rf, p)
		for s0 := 0; s0 < S; s0 += laneTile {
			s1 := min(s0+laneTile, S)
			n := fill[:s1-s0]
			clear(n)
			for pos := lo; pos < hi; pos++ {
				arc := e.faninArc[pos]
				parent := e.faninFrom[pos]
				kind := e.arcKind[arc]
				am0, as0 := v.arcDelay(rf, arc)
				inRFs, nrf := liberty.Unate(e.faninSense[pos]).InRFs(rf)
				for ri := 0; ri < nrf; ri++ {
					pq, pb0 := v.queues(inRFs[ri], parent)
					for s := s0; s < s1; s++ {
						am := am0 * e.scaleMean[kind][s]
						as := as0 * e.scaleStd[kind][s]
						n[s-s0] = q.merge(qb+s*k, n[s-s0], k, pq, pb0+s*k, am, as, sign, ns)
					}
				}
			}
			for s := s0; s < s1; s++ {
				q.blankTail(qb+s*k, n[s-s0], k)
			}
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

// merge folds one parent queue — the packed k-slot queue of src at pb, every
// entry delayed by the arc's (am, as) — into the k-slot queue of q at b, whose
// first n slots are live, and returns the new live count. Slots from n on are
// never read, so the destination needs no clearing beforehand. Entries are
// ordered by orderKey under (sign, ns).
//
// A parent merged into an empty queue brings only startpoints the queue does
// not hold (its own are unique), so Algorithm 2 degenerates to a shifted copy
// of the parent restored to descending order: RSS composition can reorder
// entries with different mean/sigma trade-offs, and the stable insertion sort
// leaves them exactly where one insert per entry would. That is the whole
// merge of a single-fan-in pin — the paper's "input pins", handled without a
// kernel — and the first parent's share of every other pin.
func (q *queues) merge(b, n, k int, src *queues, pb int, am, as, sign, ns float64) int {
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	pmean := src.mean[pb : pb+k]
	pstds := src.std[pb : pb+k]
	psps := src.sp[pb : pb+k]
	if n == 0 {
		sps := q.sp[b : b+k]
		sorted, prev := true, math.Inf(1)
		for kk, psp := range psps {
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
	// The full queue's minimum key rides in a register across the parent's
	// entries: it changes only when an insert lands.
	var floor float64
	if n == k {
		floor = orderKey(mean[k-1], std[k-1], sign, ns)
	}
	for kk, psp := range psps {
		if psp == noSP {
			break
		}
		m := pmean[kk] + am
		pstd := pstds[kk]
		// sigma <= pstd+as bounds the key from above; once the queue is full,
		// rejecting against its minimum here skips the sqrt for the bulk of
		// contributions.
		if n == k && orderKey(m, pstd+as, sign, ns) <= floor {
			continue
		}
		sg := math.Sqrt(pstd*pstd + as*as)
		if n = q.insert(b, n, k, m, sg, psp, sign, ns); n == k {
			floor = orderKey(mean[k-1], std[k-1], sign, ns)
		}
	}
	return n
}

// insert is Algorithm 2 on the k-slot queue of q at b whose first n slots are
// live: maintain a descending fixed-size list of arrival distributions keyed
// by unique startpoints, and return the new live count. Step 1 updates an
// existing startpoint in place (bubbling it up to restore order); Step 2
// inserts a new startpoint after the live entries — displacing the minimum
// once the queue is full — and shifts it up into place. Only slots [0, n] are
// touched. The entry (m, s) and the entries it is compared with are all keyed
// by orderKey under (sign, ns).
func (q *queues) insert(b, n, k int, m, s float64, sp int32, sign, ns float64) int {
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	sps := q.sp[b : b+k]
	a := orderKey(m, s, sign, ns)
	// Fast reject: a contribution at or below a full queue's minimum can
	// change nothing — if its startpoint is already queued that entry is at
	// least the minimum >= a, and if it is not queued it cannot displace
	// anything.
	if n == k && a <= orderKey(mean[k-1], std[k-1], sign, ns) {
		return n
	}
	// Step 1: startpoint uniqueness check.
	for j, queued := range sps[:n] {
		if queued != sp {
			continue
		}
		if a <= orderKey(mean[j], std[j], sign, ns) {
			return n // existing entry dominates
		}
		// Bubble up: the increased value may beat entries above it.
		for j > 0 && orderKey(mean[j-1], std[j-1], sign, ns) < a {
			mean[j], std[j], sps[j] = mean[j-1], std[j-1], sps[j-1]
			j--
		}
		mean[j], std[j], sps[j] = m, s, sp
		return n
	}
	// Step 2: new startpoint.
	j := n
	if n == k {
		j = k - 1
	} else {
		n++
	}
	for j > 0 && orderKey(mean[j-1], std[j-1], sign, ns) < a {
		mean[j], std[j], sps[j] = mean[j-1], std[j-1], sps[j-1]
		j--
	}
	mean[j], std[j], sps[j] = m, s, sp
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
