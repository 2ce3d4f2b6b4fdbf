package core

import "insta/internal/num"

// view is the one way the kernels see timing state: dense Top-K tensors q,
// optionally shadowed per pin by pinQ rows and per arc by arcDelta. The
// engine's late and early tensors are views with nothing shadowed; an Overlay
// is the late view with its sparse maps filled in. Everything that rebuilds,
// compares or reads a queue — recompute, the cone wave, the setup slack walk —
// goes through the two resolvers below, so a what-if preview and the
// propagation it previews are the same code over different storage.
type view struct {
	e *Engine // geometry and graph the tensors are laid out over
	q *queues // dense tensors, row (rf, pin) at e.base(rf, pin)

	// pinQ shadows whole pins: both transitions and every lane flattened
	// rf*S*K + s*K + k, like one row pair of the dense tensors. arcDelta
	// shadows per-rf nominal arc delays (every lane sees them through its
	// scale factors). Both nil on the engine's own views.
	pinQ     map[int32]*queues
	arcDelta map[int32]*[2]num.Dist
}

// queues resolves pin p's Top-K queues for transition rf — for reads and for
// writes — to the tensors holding them and the offset of lane 0's block; lane
// s follows at +s*K.
func (v *view) queues(rf int, p int32) (*queues, int) {
	if v.pinQ != nil {
		if q := v.pinQ[p]; q != nil {
			return q, rf * v.e.qstride
		}
	}
	return v.q, v.e.base(rf, p)
}

// arcDelay resolves arc's nominal delay for output transition rf.
func (v *view) arcDelay(rf int, arc int32) (mean, std float64) {
	if v.arcDelta != nil {
		if od := v.arcDelta[arc]; od != nil {
			return od[rf].Mean, od[rf].Std
		}
	}
	return v.e.arcMean[rf][arc], v.e.arcStd[rf][arc]
}

// snapshot copies pin p's rows — both transitions, every lane — into dst,
// rf-major: the layout of a pinQ row pair.
func (v *view) snapshot(dst *queues, p int32) {
	n := v.e.qstride
	for rf := 0; rf < 2; rf++ {
		q, b := v.queues(rf, p)
		dst.copyFrom(rf*n, q, b, n)
	}
}

// retime rebuilds pin p's queues (recompute, with its sign and scratch) and
// reports whether any lane's came out different from what the view showed
// before, which is left in snap. The comparison is exact on what a queue means: a
// merge never writes past the live entries it leaves, so two rows differ
// exactly when their live entries or live counts do.
func (v *view) retime(snap *queues, sign float64, p int32, ms *mergeScratch) bool {
	n := v.e.qstride
	q0, b0 := v.queues(0, p)
	q1, b1 := v.queues(1, p)
	snap.copyFrom(0, q0, b0, n)
	snap.copyFrom(n, q1, b1, n)
	v.recompute(sign, p, ms)
	return !snap.equal(0, q0, b0, n) || !snap.equal(n, q1, b1, n)
}
