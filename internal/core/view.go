package core

import "insta/internal/num"

// view is the one way the kernels see timing state: dense Top-K tensors q,
// optionally shadowed per pin by rows of chunks and per arc by arcDist. The
// engine's late and early tensors are views with nothing shadowed; an Overlay
// is the late one (and, on a hold engine, the early) with shadows filled in.
// Everything that rebuilds, compares or reads a queue — recompute, the cone
// wave, the setup slack walk — goes through the two resolvers below, so a
// what-if preview and the propagation it previews are the same code over
// different storage.
type view struct {
	e *Engine // geometry and graph the tensors are laid out over
	q *queues // dense tensors, row (rf, pin) at e.base(rf, pin)

	// slot shadows whole pins, sparse in storage and dense in look-up: slot[p]
	// is 0 while pin p shows its dense row, -1 for a derived pin a wave passed
	// through (it has no row to shadow), else 1 + its shadow row. Shadow row
	// r is chunk r/chunkRows' row r%chunkRows: both transitions, S*K slots
	// each, so any pin fits; pin p's lanes are laid out in it as in its dense
	// row, slot kk of lane s at rf*S*K + s*cap(p) + kk.
	// arcSlot shadows per-rf nominal arc delays, held in arcDist (every lane
	// sees them through its scale factors); arcBit flags the arcs it holds, a
	// bit per arc, so an arc it does not hold — almost every fan-in arc a
	// wave reads — costs no map look-up. All nil on the engine's own views.
	slot    []int32
	chunks  []*queues
	arcSlot map[int32]int32
	arcBit  []uint64
	arcDist [][2]num.Dist
}

// chunkRows is how many shadow rows one chunk holds: storage grows, is pooled
// and is handed back in pieces of this many pins.
const (
	chunkShift = 6
	chunkRows  = 1 << chunkShift
)

// queues resolves pin p's Top-K queues for transition rf — for reads and for
// writes — to the tensors holding them, the offset of lane 0's queue and the
// pin's capacity k, every lane's queue length: lane s follows at +s*k. Every
// loop over a queue's slots takes its length from here.
func (v *view) queues(rf int, p int32) (*queues, int, int) {
	if v.slot != nil {
		if t := v.slot[p]; t > 0 {
			q, b := v.shadow(rf, t)
			return q, b, int(v.e.rows[p].k)
		}
	}
	b, k := v.e.base(rf, p)
	return v.q, b, k
}

// shadow resolves the shadow row a non-zero slot entry t names.
func (v *view) shadow(rf int, t int32) (*queues, int) {
	r := int(t - 1)
	return v.chunks[r>>chunkShift], ((r&(chunkRows-1))<<1 | rf) * v.e.qstride
}

// shadowRow is stored pin p's row in the shadow row slot entry t > 0 names.
func (v *view) shadowRow(p, t int32) rowRef {
	q, b0 := v.shadow(0, t)
	_, b1 := v.shadow(1, t)
	return rowRef{q, [2]int{b0, b1}, int(v.e.rows[p].k)}
}

// arcDelay resolves arc's nominal delay for output transition rf.
func (v *view) arcDelay(rf int, arc int32) (mean, std float64) {
	if v.arcBit != nil && v.arcBit[arc>>6]&(1<<(arc&63)) != 0 {
		d := &v.arcDist[v.arcSlot[arc]][rf]
		return d.Mean, d.Std
	}
	st := v.e.st
	return st.ArcMean[rf][arc], st.ArcStd[rf][arc]
}

// rebuild rebuilds stored pin p's queues (recompute, with its sign and
// scratch) into dst, a row p does not show, and reports whether any lane's
// came out different from the row p does show: the one thing a cone wave does
// to a pin, whether it then copies dst back (the engine's in-place wave) or
// points p at it (an overlay). Only live entries are compared (equalLive), so
// dst needs no clearing first and whatever its last user left in it is moot.
func (v *view) rebuild(sign float64, p int32, ms *mergeScratch, dst rowRef) bool {
	v.recompute(sign, p, ms, dst)
	cur, n := v.row(p), v.e.rowSlots(p)
	return !dst.q.equalLive(dst.b[0], cur.q, cur.b[0], n) || !dst.q.equalLive(dst.b[1], cur.q, cur.b[1], n)
}

// store writes n slots of each transition of row src over r: every
// startpoint, and mean and sigma where the slot is live. An empty slot keeps
// what r held there, as it would had the queues been rebuilt in place.
func (r rowRef) store(src rowRef, n int) {
	for rf := 0; rf < 2; rf++ {
		a, b := r.b[rf], src.b[rf]
		sps := src.q.sp[b : b+n]
		copy(r.q.sp[a:a+n], sps)
		for i, sp := range sps {
			if sp != noSP {
				r.q.mean[a+i], r.q.std[a+i] = src.q.mean[b+i], src.q.std[b+i]
			}
		}
	}
}
