package core

import (
	"math"

	"insta/internal/liberty"
)

// queues is one set of Top-K tensors: per slot the ordering key (the late
// corner arrival, or the negated early corner for hold), the distribution
// behind it, and its startpoint. The engine's late and early state, an
// overlay's per-pin copies and the wavefront snapshots all have this shape.
type queues struct {
	arr, mean, std []float64
	sp             []int32
}

// newQueues allocates n slots; the three float planes share one slab.
func newQueues(n int) queues {
	buf := make([]float64, 3*n)
	return queues{
		arr:  buf[0:n:n],
		mean: buf[n : 2*n : 2*n],
		std:  buf[2*n : 3*n : 3*n],
		sp:   make([]int32, n),
	}
}

// copyFrom copies n slots of src starting at from into q at dst.
func (q *queues) copyFrom(dst int, src *queues, from, n int) {
	copy(q.arr[dst:dst+n], src.arr[from:from+n])
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
		if q.sp[a+i] != o.sp[b+i] || q.arr[a+i] != o.arr[b+i] ||
			q.mean[a+i] != o.mean[b+i] || q.std[a+i] != o.std[b+i] {
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
	e.sweep(kForward, e.propagatePin)
	if e.hold != nil {
		e.sweep(kHold, e.propagatePinMin)
	}
}

// sweep runs one per-pin kernel over the whole level schedule, one launch per
// fused level group.
func (e *Engine) sweep(tag string, pin func(p int32)) {
	sp := e.tracer.StartArg(tag, "levels", int64(e.lv.NumLevels))
	for _, g := range e.levelPlan() {
		lsp := sp.ChildArg("level", "level", int64(g.lo))
		if g.hi == g.lo+1 {
			pins := e.lv.Nodes(g.lo)
			e.pool.RunTagged(tag, g.lo, len(pins), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pin(pins[i])
				}
			})
		} else {
			// Fused narrow levels: g.spans <= the pool's serial cutoff, so
			// this launch is one inline chunk ([0, g.spans) on the caller) and
			// the level-order walk below preserves inter-level dependencies.
			e.pool.RunTagged(tag, g.lo, g.spans, func(lo, hi int) {
				for l := g.lo; l < g.hi; l++ {
					for _, p := range e.lv.Nodes(l) {
						pin(p)
					}
				}
			})
		}
		lsp.End()
	}
	sp.End()
}

// propagatePin recomputes pin p's Top-K queues for both transitions in every
// lane. The fan-in CSR is walked once per transition; the lane loop sits
// inside the per-arc contribution, resolving each lane's arc delay from the
// per-kind scale factors. For a fixed lane the insertion order over (arc
// position, input transition, parent slot) does not depend on S, which is
// what makes lane s bit-identical to a single-lane engine over scaled tables.
func (e *Engine) propagatePin(p int32) {
	if sp := e.spOfPin[p]; sp >= 0 {
		e.initStartpoint(p, sp)
		return
	}
	k := e.opt.TopK
	S := len(e.lanes)
	q := &e.top
	lo, hi := e.faninStart[p], e.faninStart[p+1]
	for rf := 0; rf < 2; rf++ {
		qb := e.base(rf, p)
		clearQueue(q.arr[qb:qb+S*k], q.sp[qb:qb+S*k])

		// Vectorized fast path for single-fan-in pins (the paper handles
		// "input pins" on the CPU without a kernel: one parent each).
		if hi-lo == 1 && liberty.Unate(e.faninSense[lo]) != liberty.NonUnate {
			for s := 0; s < S; s++ {
				e.shiftCopy(rf, s, lo, qb+s*k)
			}
			continue
		}

		for pos := lo; pos < hi; pos++ {
			arc := e.faninArc[pos]
			parent := e.faninFrom[pos]
			kind := e.arcKind[arc]
			am0 := e.arcMean[rf][arc]
			as0 := e.arcStd[rf][arc]
			inRFs, n := liberty.Unate(e.faninSense[pos]).InRFs(rf)
			for ri := 0; ri < n; ri++ {
				pb0 := e.base(inRFs[ri], parent)
				for s := 0; s < S; s++ {
					am := am0 * e.scaleMean[kind][s]
					as := as0 * e.scaleStd[kind][s]
					pb := pb0 + s*k
					b := qb + s*k
					arr := q.arr[b : b+k]
					mean := q.mean[b : b+k]
					std := q.std[b : b+k]
					sps := q.sp[b : b+k]
					for kk := 0; kk < k; kk++ {
						psp := q.sp[pb+kk]
						if psp == noSP {
							break // queues are packed: empties trail
						}
						m := q.mean[pb+kk] + am
						pstd := q.std[pb+kk]
						// sigma <= pstd+as bounds the arrival from above;
						// rejecting against the queue minimum here skips the
						// sqrt for the bulk of contributions.
						if m+e.nSigma*(pstd+as) <= arr[k-1] {
							continue
						}
						sg := math.Sqrt(pstd*pstd + as*as)
						InsertTopK(arr, mean, std, sps, m+e.nSigma*sg, m, sg, psp)
					}
				}
			}
		}
	}
}

// initStartpoint seeds a startpoint pin's queues in every lane with its
// launch arrival distribution (clock network arrival or input delay); lanes
// derate arcs, not launches.
func (e *Engine) initStartpoint(p, sp int32) {
	k := e.opt.TopK
	q := &e.top
	for rf := 0; rf < 2; rf++ {
		b := e.base(rf, p)
		clearQueue(q.arr[b:b+e.qstride], q.sp[b:b+e.qstride])
		for end := b + e.qstride; b < end; b += k {
			q.mean[b] = e.spMean[sp]
			q.std[b] = e.spStd[sp]
			q.arr[b] = e.spMean[sp] + e.nSigma*e.spStd[sp]
			q.sp[b] = sp
		}
	}
}

// shiftCopy implements the single-parent fast path for lane s: shift the
// parent's whole queue by the lane's arc delay into the block at b. RSS
// composition can reorder entries with different mean/sigma trade-offs, so a
// near-sorted insertion sort restores descending order.
func (e *Engine) shiftCopy(rf, s int, pos int32, b int) {
	arc := e.faninArc[pos]
	parent := e.faninFrom[pos]
	inRFs, _ := liberty.Unate(e.faninSense[pos]).InRFs(rf)
	kind := e.arcKind[arc]
	am := e.arcMean[rf][arc] * e.scaleMean[kind][s]
	as := e.arcStd[rf][arc] * e.scaleStd[kind][s]
	k := e.opt.TopK
	q := &e.top
	pb := e.base(inRFs[0], parent) + s*k
	arr := q.arr[b : b+k]
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	sps := q.sp[b : b+k]
	n := 0
	for kk := 0; kk < k; kk++ {
		psp := q.sp[pb+kk]
		if psp == noSP {
			break
		}
		m := q.mean[pb+kk] + am
		sg := math.Sqrt(q.std[pb+kk]*q.std[pb+kk] + as*as)
		arr[n] = m + e.nSigma*sg
		mean[n] = m
		std[n] = sg
		sps[n] = psp
		n++
	}
	// Insertion sort (descending by arrival); input is nearly sorted.
	for i := 1; i < n; i++ {
		a, m, sg, sp := arr[i], mean[i], std[i], sps[i]
		j := i - 1
		for j >= 0 && arr[j] < a {
			arr[j+1], mean[j+1], std[j+1], sps[j+1] = arr[j], mean[j], std[j], sps[j]
			j--
		}
		arr[j+1], mean[j+1], std[j+1], sps[j+1] = a, m, sg, sp
	}
}

// clearQueue empties a run of queue slots (possibly several lanes' contiguous
// blocks at once).
func clearQueue(arr []float64, sps []int32) {
	for i := range arr {
		arr[i] = math.Inf(-1)
		sps[i] = noSP
	}
}

// InsertTopK is Algorithm 2: maintain a descending fixed-size list of
// arrival distributions keyed by unique startpoints. Step 1 updates an
// existing startpoint in place (bubbling it up to restore order); Step 2
// inserts a new startpoint by shifting if it beats the current minimum.
// Empty slots carry sp == -1 and arr == -Inf.
func InsertTopK(arr, mean, std []float64, sps []int32, a, m, s float64, sp int32) {
	k := len(arr)
	// Fast reject: a contribution at or below the current minimum can change
	// nothing — if its startpoint is already queued that entry is at least
	// arr[k-1] >= a, and if it is not queued it cannot displace anything.
	if a <= arr[k-1] {
		return
	}
	// Step 1: startpoint uniqueness check.
	for j := 0; j < k; j++ {
		if sps[j] == noSP {
			break
		}
		if sps[j] != sp {
			continue
		}
		if a <= arr[j] {
			return // existing entry dominates
		}
		arr[j], mean[j], std[j] = a, m, s
		// Bubble up: the increased value may beat entries above it.
		for j > 0 && arr[j-1] < arr[j] {
			arr[j-1], arr[j] = arr[j], arr[j-1]
			mean[j-1], mean[j] = mean[j], mean[j-1]
			std[j-1], std[j] = std[j], std[j-1]
			sps[j-1], sps[j] = sps[j], sps[j-1]
			j--
		}
		return
	}
	// Step 2: new startpoint; insert if it beats the smallest entry.
	if a <= arr[k-1] {
		return
	}
	j := k - 1
	for j > 0 && arr[j-1] < a {
		arr[j], mean[j], std[j], sps[j] = arr[j-1], mean[j-1], std[j-1], sps[j-1]
		j--
	}
	arr[j], mean[j], std[j], sps[j] = a, m, s, sp
}

// LaneTopEntries returns pin p's Top-K arrival entries for transition rf in
// lane s as (arrival, mean, std, sp) quadruples, for inspection and testing.
func (e *Engine) LaneTopEntries(rf int, p int32, s int) (arr, mean, std []float64, sps []int32) {
	k := e.opt.TopK
	b := e.base(rf, p) + s*k
	return e.top.arr[b : b+k], e.top.mean[b : b+k], e.top.std[b : b+k], e.top.sp[b : b+k]
}

// TopEntries is LaneTopEntries for lane 0.
func (e *Engine) TopEntries(rf int, p int32) (arr, mean, std []float64, sps []int32) {
	return e.LaneTopEntries(rf, p, 0)
}
