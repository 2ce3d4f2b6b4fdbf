package core

// Hold (early/min-delay) analysis in INSTA, mirroring the late Top-K kernel:
// per pin and transition a fixed-size queue of the K *smallest* early-corner
// arrival distributions with unique startpoints. Enabled with Options.Hold;
// the default setup-only configuration pays nothing for it.
//
// The queues reuse Algorithm 2's linear insert by negating the ordering key
// (early corner), so all of its invariants — packed slots, unique
// startpoints, strict ordering — carry over, as do the unit properties
// tested on InsertTopK.

import (
	"math"

	"insta/internal/liberty"
)

// holdState holds the early-arrival state (allocated when Options.Hold): the
// queues are laid out like the late ones, with arr storing the *negated*
// early corner so larger = earlier, plus per-lane hold slacks indexed
// s*numEPs + i.
type holdState struct {
	queues
	epSlack []float64
}

// HoldEnabled reports whether the engine propagates early arrivals.
func (e *Engine) HoldEnabled() bool { return e.hold != nil }

// propagatePinMin is the early-arrival counterpart of propagatePin; Propagate
// sweeps it over the level schedule when hold is enabled.
func (e *Engine) propagatePinMin(p int32) {
	h := e.hold
	k := e.opt.TopK
	S := len(e.lanes)
	if sp := e.spOfPin[p]; sp >= 0 {
		for rf := 0; rf < 2; rf++ {
			b := e.base(rf, p)
			clearQueue(h.arr[b:b+S*k], h.sp[b:b+S*k])
			for end := b + S*k; b < end; b += k {
				h.mean[b] = e.spMean[sp]
				h.std[b] = e.spStd[sp]
				h.arr[b] = -(e.spMean[sp] - e.nSigma*e.spStd[sp])
				h.sp[b] = sp
			}
		}
		return
	}
	lo, hi := e.faninStart[p], e.faninStart[p+1]
	for rf := 0; rf < 2; rf++ {
		qb := e.base(rf, p)
		clearQueue(h.arr[qb:qb+S*k], h.sp[qb:qb+S*k])
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
					negArr := h.arr[b : b+k]
					mean := h.mean[b : b+k]
					std := h.std[b : b+k]
					sps := h.sp[b : b+k]
					for kk := 0; kk < k; kk++ {
						psp := h.sp[pb+kk]
						if psp == noSP {
							break
						}
						m := h.mean[pb+kk] + am
						pstd := h.std[pb+kk]
						sg := math.Sqrt(pstd*pstd + as*as)
						// Negated early corner: -(m - nSigma*s).
						InsertTopK(negArr, mean, std, sps, -(m - e.nSigma*sg), m, sg, psp)
					}
				}
			}
		}
	}
}

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
	h := e.hold
	k := e.opt.TopK
	S := len(e.lanes)
	nEP := len(e.epPin)
	e.pool.RunTagged(kHoldSlack, -1, nEP, func(lo, hiI int) {
		for i := lo; i < hiI; i++ {
			p := e.epPin[i]
			for s := 0; s < S; s++ {
				best := math.Inf(1)
				for rf := 0; rf < 2; rf++ {
					req := e.epHold[rf][i]
					if math.IsInf(req, 1) {
						continue
					}
					b := e.base(rf, p) + s*k
					for kk := 0; kk < k; kk++ {
						sp := h.sp[b+kk]
						if sp == noSP {
							break
						}
						adj := e.excLookup(e.spPin[sp], p)
						if adj.False {
							continue
						}
						early := -h.arr[b+kk]
						if sl := early - req + e.credit(e.spNode[sp], e.epNode[i]); sl < best {
							best = sl
						}
					}
				}
				h.epSlack[s*nEP+i] = best
			}
		}
	})
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
