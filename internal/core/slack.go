package core

import "math"

// EvalSlacks computes every endpoint's setup slack in every lane from the
// propagated Top-K arrivals, in one endpoint sweep: each retained startpoint
// is paired with its own required time (base requirement + multicycle periods
// + CPPR credit — shared by all lanes, which derate arcs only), and the
// minimum wins. False-path pairs are skipped. The result is cached; a copy of
// lane 0's slacks is returned. Untimed endpoints carry +Inf.
func (e *Engine) EvalSlacks() []float64 {
	e.RefreshSlacks()
	return append([]float64(nil), e.LaneSlacks(0)...)
}

// RefreshSlacks is EvalSlacks without the defensive copy: it refreshes the
// cached slacks of every lane in place (read them through LaneSlacks).
func (e *Engine) RefreshSlacks() { e.refreshSlacks(len(e.st.EpPin), nil) }

// refreshSlacks re-evaluates n endpoints in every lane: eps[:n], or endpoints
// 0..n-1 when eps is nil.
func (e *Engine) refreshSlacks(n int, eps []int32) {
	sp := e.opt.Tracer.StartArg(kSlack, "endpoints", int64(n))
	defer sp.End()
	e.run.eps = eps
	e.pool.RunIndexed(kSlack, -1, n, e.kern.slack)
	e.run.eps = nil
}

// slackKernel evaluates endpoints [lo, hi) of the pass in every lane.
func (e *Engine) slackKernel(_, lo, hi int) {
	nEP := len(e.st.EpPin)
	for i := lo; i < hi; i++ {
		ep := int32(i)
		if e.run.eps != nil {
			ep = e.run.eps[i]
		}
		for s := range e.scns {
			j := s*nEP + int(ep)
			e.epSlack[j], e.epSP[j], e.epRF[j] = e.top.setupSlack(s, ep, e.opt.TopK)
		}
	}
}

// setupSlack is the setup slack walk: endpoint ep's lane-s slack over the
// first kmax entries of each transition's queue as seen through v, with the
// startpoint and transition behind it (noSP when the endpoint is untimed, and
// the slack then +Inf). Each retained startpoint is paired with its own
// required time; false-path pairs are skipped. kmax = K is the engine's and an
// overlay's slack; kmax = 1 is the K=1 view the differentiable mode operates
// on. Either is clamped to the pin's capacity.
func (v *view) setupSlack(s int, ep int32, kmax int) (slack float64, sp int32, rf int8) {
	e, st := v.e, v.e.st
	p := st.EpPin[ep]
	slack, sp = math.Inf(1), noSP
	for r := 0; r < 2; r++ {
		q, b, k := v.queues(r, p)
		b += s * k
		for kk := 0; kk < min(kmax, k); kk++ {
			qsp := q.sp[b+kk]
			if qsp == noSP {
				break
			}
			adj := e.excLookup(st.SpPin[qsp], p)
			if adj.False {
				continue
			}
			req := st.EpBase[r][ep] +
				float64(adj.CycleCount()-1)*st.Period +
				st.Credit(st.SpNode[qsp], st.EpNode[ep])
			if sl := req - (q.mean[b+kk] + st.NSigma*q.std[b+kk]); sl < slack {
				slack, sp, rf = sl, qsp, int8(r)
			}
		}
	}
	return slack, sp, rf
}

// LaneSlacks returns lane s's cached endpoint slacks from the last
// evaluation. The slice is the engine's own; callers must not mutate it.
func (e *Engine) LaneSlacks(s int) []float64 {
	nEP := len(e.st.EpPin)
	return e.epSlack[s*nEP : (s+1)*nEP]
}

// Slacks returns lane 0's cached endpoint slacks from the last evaluation.
func (e *Engine) Slacks() []float64 { return e.LaneSlacks(0) }

// WNS returns the worst negative slack in slacks (0 when nothing violates).
func WNS(slacks []float64) float64 {
	w := 0.0
	for _, s := range slacks {
		if s < w {
			w = s
		}
	}
	return w
}

// TNS returns the total negative slack in slacks, summed in index order.
func TNS(slacks []float64) float64 {
	t := 0.0
	for _, s := range slacks {
		if s < 0 {
			t += s
		}
	}
	return t
}

// Violations counts the negative entries of slacks.
func Violations(slacks []float64) int {
	n := 0
	for _, s := range slacks {
		if s < 0 {
			n++
		}
	}
	return n
}

// WNS returns lane 0's worst negative slack of the last evaluation.
func (e *Engine) WNS() float64 { return WNS(e.Slacks()) }

// TNS returns lane 0's total negative slack of the last evaluation.
func (e *Engine) TNS() float64 { return TNS(e.Slacks()) }

// NumViolations counts lane 0's endpoints with negative slack.
func (e *Engine) NumViolations() int { return Violations(e.Slacks()) }

// LaneCriticalStartpoint returns the startpoint index and data transition
// behind endpoint i's last-evaluated lane-s slack (-1 when untimed).
func (e *Engine) LaneCriticalStartpoint(s, i int) (sp int32, rf int) {
	j := s*len(e.st.EpPin) + i
	return e.epSP[j], int(e.epRF[j])
}

// Run performs a full forward evaluation: Propagate followed by EvalSlacks.
func (e *Engine) Run() []float64 {
	e.Propagate()
	return e.EvalSlacks()
}
