package core

// Hold (early/min-delay) analysis in INSTA, mirroring the late Top-K kernel:
// per pin and transition a fixed-size queue of the K *smallest* early-corner
// arrival distributions with unique startpoints. Enabled with Options.Hold;
// the default setup-only configuration pays nothing for it.
//
// The queues are rebuilt by the late kernel's fill-tracked merge (recompute
// with sign -1: the ordering key is the negated early corner), upper-bound
// reject and copy path included, so all of Algorithm 2's invariants — packed
// slots, unique startpoints, strict ordering — carry over, as do the unit
// properties tested on insert.

import "math"

// holdState holds the early-arrival state (allocated when Options.Hold): the
// early view, laid out like the late one and ordered by the *negated* early
// corner so larger = earlier, plus per-lane hold slacks indexed s*numEPs + i.
type holdState struct {
	view
	epSlack []float64
}

// HoldEnabled reports whether the engine propagates early arrivals.
func (e *Engine) HoldEnabled() bool { return e.hold != nil }

// EvalHoldSlacks evaluates hold slacks from the propagated early arrivals:
//
//	slack = earlyArrival - holdReq + credit(sp, ep)
//
// minimized over startpoints and transitions, for every lane, and returns a
// copy of lane 0's. Unchecked endpoints (primary outputs) carry +Inf.
// Requires Options.Hold and a prior Propagate.
func (e *Engine) EvalHoldSlacks() []float64 {
	e.RefreshHoldSlacks()
	return append([]float64(nil), e.LaneHoldSlacks(0)...)
}

// RefreshHoldSlacks is EvalHoldSlacks without the defensive copy; read the
// result through LaneHoldSlacks.
func (e *Engine) RefreshHoldSlacks() {
	sp := e.tracer.StartArg(kHoldSlack, "endpoints", int64(len(e.epPin)))
	defer sp.End()
	e.pool.RunIndexed(kHoldSlack, -1, len(e.epPin), e.kern.holdSlack)
}

// holdSlackKernel evaluates the hold slack of endpoints [lo, hi) in every lane.
func (e *Engine) holdSlackKernel(_, lo, hi int) {
	h := e.hold
	k := e.opt.TopK
	S := len(e.lanes)
	nEP := len(e.epPin)
	for i := lo; i < hi; i++ {
		p := e.epPin[i]
		for s := 0; s < S; s++ {
			best := math.Inf(1)
			for rf := 0; rf < 2; rf++ {
				req := e.epHold[rf][i]
				if math.IsInf(req, 1) {
					continue
				}
				q, b := h.queues(rf, p)
				b += s * k
				for kk := 0; kk < k; kk++ {
					sp := q.sp[b+kk]
					if sp == noSP {
						break
					}
					adj := e.excLookup(e.spPin[sp], p)
					if adj.False {
						continue
					}
					early := q.mean[b+kk] - e.nSigma*q.std[b+kk]
					if sl := early - req + e.credit(e.spNode[sp], e.epNode[i]); sl < best {
						best = sl
					}
				}
			}
			h.epSlack[s*nEP+i] = best
		}
	}
}

// LaneHoldSlacks returns lane s's hold slacks from the last evaluation. The
// slice is the engine's own; callers must not mutate it.
func (e *Engine) LaneHoldSlacks(s int) []float64 {
	nEP := len(e.epPin)
	return e.hold.epSlack[s*nEP : (s+1)*nEP]
}

// HoldWNS returns lane 0's worst negative hold slack of the last evaluation.
func (e *Engine) HoldWNS() float64 { return WNS(e.LaneHoldSlacks(0)) }

// HoldTNS returns lane 0's total negative hold slack of the last evaluation.
func (e *Engine) HoldTNS() float64 { return TNS(e.LaneHoldSlacks(0)) }
