package core

import "insta/internal/num"

// view is the one way the kernels see timing state: dense Top-K tensors q,
// optionally shadowed per pin by rows of chunks and per arc by arcDist. The
// engine's late and early tensors are views with nothing shadowed; an Overlay
// is the late view with its shadows filled in. Everything that rebuilds,
// compares or reads a queue — recompute, the cone wave, the setup slack walk —
// goes through the two resolvers below, so a what-if preview and the
// propagation it previews are the same code over different storage.
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
	// sees them through its scale factors). All nil on the engine's own views.
	slot    []int32
	chunks  []*queues
	arcSlot map[int32]int32
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

// arcDelay resolves arc's nominal delay for output transition rf.
func (v *view) arcDelay(rf int, arc int32) (mean, std float64) {
	if v.arcSlot != nil {
		if i, ok := v.arcSlot[arc]; ok {
			d := &v.arcDist[i][rf]
			return d.Mean, d.Std
		}
	}
	st := v.e.st
	return st.ArcMean[rf][arc], st.ArcStd[rf][arc]
}

// retime rebuilds pin p's queues in place (recompute, with its sign and
// scratch) and reports whether any lane's came out different from what the
// view showed before. The rebuild overwrites what it is compared against, so
// that is copied to snap, which holds the widest row, first. A derived pin
// has no queues to compare: the wave passes through it to its child, which
// replays it.
func (v *view) retime(snap *queues, sign float64, p int32, ms *mergeScratch) bool {
	if v.e.rows[p].derived {
		return true
	}
	n := v.e.rowSlots(p)
	q0, b0, _ := v.queues(0, p)
	q1, b1, _ := v.queues(1, p)
	snap.copyFrom(0, q0, b0, n)
	snap.copyFrom(n, q1, b1, n)
	v.recompute(sign, p, ms)
	return !snap.equalLive(0, q0, b0, n) || !snap.equalLive(n, q1, b1, n)
}
