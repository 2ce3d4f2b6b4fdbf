package core

import (
	"math"
	"slices"

	"insta/internal/liberty"
)

// queues is one set of Top-K tensors: per slot an arrival distribution and
// its startpoint (noSP = empty), as in the paper's queue. What a queue is
// ordered by — the late corner, or the negated early corner for hold — is not
// stored: every site that compares entries derives it from (mean, std) through
// orderKey. The engine's late and early state, an overlay's row chunks and a
// participant's merge scratch all have this shape.
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

// restride returns a copy of q re-laid from an rf stride of oldCap to newCap
// units, keeping the first used units of each rf block; a unit is stride
// slots.
func (q *queues) restride(oldCap, newCap, used, stride int) queues {
	nq := newQueues(2 * newCap * stride)
	for rf := 0; rf < 2; rf++ {
		nq.copyFrom(rf*newCap*stride, q, rf*oldCap*stride, used*stride)
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
	sp := e.opt.Tracer.StartArg(tag, "levels", int64(e.st.NumLevels))
	e.run.v, e.run.sign, e.run.scratch = v, sign, e.borrowScratch()
	for _, g := range e.levelPlan() {
		lsp := sp.ChildArg("level", "level", int64(g.lo))
		if g.hi == g.lo+1 {
			e.run.pins = e.st.levelPins(g.lo)
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

// recompute rebuilds stored pin p's queues as seen through v into dst, a row
// of p's length, both transitions in every lane — a late view with sign +1,
// the early one (hold) with sign -1: startpoints reseed their launch arrival,
// single-fan-in unate pins copy their parent, everything else merges its
// fan-in on the calling participant's scratch ms. Arc delays and parent
// queues resolve through v, so the full passes, the incremental wave and an
// overlay's preview run this one walk; a full pass writes p's own row, a wave
// a row p does not show (rebuild). A derived pin is never rebuilt: it has no
// row, and its one reader replays it.
func (v *view) recompute(sign float64, p int32, ms *mergeScratch, dst rowRef) {
	st := v.e.st
	if sp := st.SpOfPin[p]; sp >= 0 {
		v.initStartpoint(sp, dst)
		return
	}
	if pos := st.FaninStart[p]; st.FaninStart[p+1]-pos == 1 && liberty.Unate(st.FaninSense[pos]) != liberty.NonUnate {
		v.shift(sign, pos, v.ref(sign, st.FaninFrom[pos], ms, firstReplay), dst)
		return
	}
	v.mergeFanin(sign, p, ms, dst)
}

// rowRef is where a pin's queues are read or written: transition rf's lane-0
// queue at b[rf] of q, k slots per lane, lane s at +s*k.
type rowRef struct {
	q *queues
	b [2]int
	k int
}

// row resolves a stored pin's row through v.
func (v *view) row(p int32) rowRef {
	q, b0, k := v.queues(0, p)
	_, b1, _ := v.queues(1, p)
	return rowRef{q, [2]int{b0, b1}, k}
}

// ref resolves pin p's row for a pin being rebuilt or differentiated: its row
// through v, or — for a derived pin — region r of ms, where it is replayed
// first.
func (v *view) ref(sign float64, p int32, ms *mergeScratch, r int) rowRef {
	if v.e.rows[p].derived {
		return v.replay(sign, p, ms, r)
	}
	return v.row(p)
}

// parents resolves pin p's fan-in, in CSR order, to rows through v into
// ms.par: stored parents' rows, derived ones replayed into ms, one region
// each from firstReplay on.
func (v *view) parents(sign float64, p int32, ms *mergeScratch) []rowRef {
	st := v.e.st
	par, r := ms.par[:0], firstReplay
	for _, from := range st.FaninFrom[st.FaninStart[p]:st.FaninStart[p+1]] {
		if par = append(par, v.ref(sign, from, ms, r)); v.e.rows[from].derived {
			r++
		}
	}
	ms.par = par
	return par
}

// replay rebuilds derived pin d's queues as v shows them — both transitions,
// every lane — into region r of ms and returns where they are. The chain of
// derived pins d hangs under is replayed hop by hop from its nearest stored
// ancestor, each hop shift's copy of the one before, alternating between
// region 0 and region r so that d's lands in r: the arithmetic of a stored
// copy, so every queue is bit for bit the one a row would hold. Nothing is
// written to v: a derived pin has no row.
func (v *view) replay(sign float64, d int32, ms *mergeScratch, r int) rowRef {
	e, st := v.e, v.e.st
	hops := ms.hops[:0]
	p := d
	for ; e.rows[p].derived; p = st.FaninFrom[st.FaninStart[p]] {
		hops = append(hops, p)
	}
	ms.hops = hops
	src := v.row(p)
	for i := len(hops) - 1; i >= 0; i-- {
		p := hops[i]
		reg := r
		if i&1 == 1 {
			reg = 0
		}
		dst := ms.row(e, reg, int(e.rows[p].k))
		v.shift(sign, st.FaninStart[p], src, dst)
		src = dst
	}
	return src
}

// revive rebuilds dead pin d's queues — both transitions, every lane — as a
// pass over the late view would leave them, into a row of its own, and returns
// where it is. d and every dead pin upstream of it are rebuilt (recompute) in
// level order into shadow rows of an overlay borrowed from e's pool, each
// reading its dead parents there and its live ones in the tensors: a live
// pin's parents are live, so no other pin needs a shadow. d's live entries are
// copied out and the overlay goes back to the pool as it came, empty.
func (e *Engine) revive(d int32) rowRef {
	st := e.st
	o := NewOverlay(e)
	if o.ix == nil {
		o.bindIndex()
	}
	dead := append(o.shadowed[:0], d)
	o.slot[d] = -1
	for i := 0; i < len(dead); i++ {
		for _, from := range st.FaninFrom[st.FaninStart[dead[i]]:st.FaninStart[dead[i]+1]] {
			if e.rows[from].dead && o.slot[from] == 0 {
				o.slot[from] = -1
				dead = append(dead, from)
			}
		}
	}
	slices.SortFunc(dead, func(a, b int32) int { return int(st.LvLevel[a] - st.LvLevel[b]) })
	set := e.borrowScratch()
	for _, p := range dead {
		o.slot[p] = 1 + o.takeRow()
		o.recompute(1, p, set[0], o.row(p))
	}
	e.returnScratch(set)
	// Copied live entries only: an empty slot reads 0, not what the pooled
	// row's last user left there.
	k := int(e.rows[d].k)
	n := len(e.scns) * k
	q := newQueues(2 * n)
	r := rowRef{&q, [2]int{0, n}, k}
	r.store(o.row(d), n)
	for _, p := range dead {
		o.slot[p] = 0
	}
	o.shadowed, o.nRows = dead[:0], 0
	e.overlays.Put(o)
	return r
}

// shift fills dst with src's queues shifted by the unate arc at fan-in CSR
// position pos — each queue src's merged into an empty queue (mergeEmpty),
// the transitions swapped through a negative-unate arc: the whole rebuild of
// a pin whose fan-in is that one arc, which needs neither a live count
// carried nor a startpoint index.
func (v *view) shift(sign float64, pos int32, src, dst rowRef) {
	e, st := v.e, v.e.st
	ns := sign * st.NSigma
	arc := st.FaninArc[pos]
	kind := st.ArcKind[arc]
	flip := 0
	if liberty.Unate(st.FaninSense[pos]) == liberty.NegativeUnate {
		flip = 1
	}
	for rf := 0; rf < 2; rf++ {
		am0, as0 := v.arcDelay(rf, arc)
		b, pb := dst.b[rf], src.b[rf^flip]
		for s := range e.scns {
			am := am0 * e.scaleMean[kind][s]
			as := as0 * e.scaleStd[kind][s]
			dst.q.blankTail(b, dst.q.mergeEmpty(b, dst.k, src.q, pb, src.k, am, as, sign, ns), dst.k)
			b, pb = b+dst.k, pb+src.k
		}
	}
}

// mergeFanin rebuilds pin p's queues into dst from its parents' queues, all as
// seen through v, with recompute's sign. The parents' rows are resolved once
// (parents); then per transition the fan-in CSR is walked once, gathering the
// pin's contributions — parent row, nominal arc delay, kind, each resolved
// through v once — into ms.fan; then the walk is lane-outer: one lane's queue
// is finished before the next is started, so one scalar live count and the participant's one
// startpoint index serve any lane count. For a fixed lane the insertion order
// over (arc position, input transition, parent slot) does not depend on S,
// which is what makes lane s bit-identical to a single-lane engine over
// scaled tables.
//
// The merge is fill-tracked: the queue's live count rides along in a local,
// inserts touch live slots only, and the unused tail is blanked once at the
// end — the packed-tail contract every reader relies on (n live entries,
// descending, unique startpoints, then noSP).
func (v *view) mergeFanin(sign float64, p int32, ms *mergeScratch, dst rowRef) {
	e, st := v.e, v.e.st
	ns := sign * st.NSigma
	lo, hi := st.FaninStart[p], st.FaninStart[p+1]
	par := v.parents(sign, p, ms)
	for rf := 0; rf < 2; rf++ {
		fan := ms.fan[:0]
		for pos := lo; pos < hi; pos++ {
			arc := st.FaninArc[pos]
			am, as := v.arcDelay(rf, arc)
			c := &par[pos-lo]
			inRFs, nrf := liberty.Unate(st.FaninSense[pos]).InRFs(rf)
			for ri := 0; ri < nrf; ri++ {
				fan = append(fan, faninContrib{q: c.q, b: c.b[inRFs[ri]], k: int32(c.k), am: am, as: as, kind: st.ArcKind[arc]})
			}
		}
		ms.fan = fan
		q, b, k := dst.q, dst.b[rf], dst.k
		for s := range e.scns {
			n := 0
			for i := range fan {
				c := &fan[i]
				am := c.am * e.scaleMean[c.kind][s]
				as := c.as * e.scaleStd[c.kind][s]
				pk := int(c.k)
				n = q.merge(b, n, k, c.q, c.b+s*pk, pk, am, as, sign, ns, &ms.spIndex)
			}
			q.blankTail(b, n, k)
			b += k
		}
	}
}

// initStartpoint seeds startpoint sp's queues in dst, every lane, with its
// launch arrival distribution (clock network arrival or input delay); lanes
// derate arcs, not launches. A one-entry queue is in order under either sign.
func (v *view) initStartpoint(sp int32, dst rowRef) {
	e := v.e
	m, sg := e.st.SpMean[sp], e.st.SpStd[sp]
	q, k := dst.q, dst.k
	for rf := 0; rf < 2; rf++ {
		for b, end := dst.b[rf], dst.b[rf]+len(e.scns)*k; b < end; b += k {
			q.mean[b] = m
			q.std[b] = sg
			q.sp[b] = sp
			q.blankTail(b, 1, k)
		}
	}
}

// clearQueue empties a run of queue slots: a slot is empty when its
// startpoint is noSP, whatever its mean and sigma hold.
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
// the packed pk-slot queue of src at pb, every entry delayed by the arc's
// (am, as) — and returns the live count. The destination is the parent's
// child, so its capacity k holds every live entry of the parent (rowCap).
// Entries are ordered by orderKey under (sign, ns); slots past the live count
// are not written.
//
// A parent merged into an empty queue brings only startpoints the queue does
// not hold (its own are unique), so Algorithm 2 degenerates to a shifted copy
// of the parent restored to descending order: RSS composition can reorder
// entries with different mean/sigma trade-offs, and the stable insertion sort
// leaves them exactly where one insert per entry would. That is the whole
// merge of a single-fan-in pin — the paper's "input pins", handled without a
// kernel — and the first parent's share of every other pin.
func (q *queues) mergeEmpty(b, k int, src *queues, pb, pk int, am, as, sign, ns float64) int {
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	sps := q.sp[b : b+k]
	pmean := src.mean[pb : pb+pk]
	pstds := src.std[pb : pb+pk]
	n := 0
	sorted, prev := true, math.Inf(1)
	for kk, psp := range src.sp[pb : pb+pk] {
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

// merge folds one parent queue — the packed pk-slot queue of src at pb, every
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
func (q *queues) merge(b, n, k int, src *queues, pb, pk int, am, as, sign, ns float64, ix *spIndex) int {
	if n == 0 {
		ix.loaded = false // whatever ix holds describes another queue
		return q.mergeEmpty(b, k, src, pb, pk, am, as, sign, ns)
	}
	mean := q.mean[b : b+k]
	std := q.std[b : b+k]
	sps := q.sp[b : b+k]
	pmean := src.mean[pb : pb+pk]
	pstds := src.std[pb : pb+pk]
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
	for kk, psp := range src.sp[pb : pb+pk] {
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
// inspection and testing. The slices are the pin's row — a replayed copy for
// a derived pin, a rebuilt one for a dead pin (view.revive) — as long as its
// capacity, min(K, what its fan-in can bring), and the live entries end at
// the first sp < 0 or at the end.
func (e *Engine) LaneTopEntries(rf int, p int32, s int) (mean, std []float64, sps []int32) {
	var r rowRef
	if e.rows[p].dead {
		r = e.revive(p)
	} else {
		r = e.top.ref(1, p, new(mergeScratch), 1)
	}
	b := r.b[rf] + s*r.k
	return r.q.mean[b : b+r.k], r.q.std[b : b+r.k], r.q.sp[b : b+r.k]
}

// TopEntries is LaneTopEntries for lane 0.
func (e *Engine) TopEntries(rf int, p int32) (mean, std []float64, sps []int32) {
	return e.LaneTopEntries(rf, p, 0)
}
