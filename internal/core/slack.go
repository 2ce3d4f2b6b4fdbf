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
// cached slacks of every lane in place. Zero-alloc paths (incremental commit,
// serving, multi-lane callers) call this and read the cache through
// LaneSlacks.
func (e *Engine) RefreshSlacks() {
	sp := e.tracer.StartArg(kSlack, "endpoints", int64(len(e.epPin)))
	defer sp.End()
	e.pool.RunIndexed(kSlack, -1, len(e.epPin), e.kern.slack)
}

// slackKernel evaluates endpoints [lo, hi) in every lane.
func (e *Engine) slackKernel(_, lo, hi int) {
	nEP := len(e.epPin)
	for i := lo; i < hi; i++ {
		for s := range e.scns {
			j := s*nEP + i
			e.epSlack[j], e.epSP[j], e.epRF[j] = e.top.setupSlack(s, int32(i), e.opt.TopK)
		}
	}
}

// setupSlack is the setup slack walk: endpoint ep's lane-s slack over the
// first kmax entries of each transition's queue as seen through v, with the
// startpoint and transition behind it (noSP when the endpoint is untimed, and
// the slack then +Inf). Each retained startpoint is paired with its own
// required time; false-path pairs are skipped. kmax = K is the engine's and an
// overlay's slack; kmax = 1 is the K=1 view the differentiable mode operates
// on.
func (v *view) setupSlack(s int, ep int32, kmax int) (slack float64, sp int32, rf int8) {
	e := v.e
	p := e.epPin[ep]
	slack, sp = math.Inf(1), noSP
	for r := 0; r < 2; r++ {
		q, b := v.queues(r, p)
		b += s * e.opt.TopK
		for kk := 0; kk < kmax; kk++ {
			qsp := q.sp[b+kk]
			if qsp == noSP {
				break
			}
			adj := e.excLookup(e.spPin[qsp], p)
			if adj.False {
				continue
			}
			req := e.epBase[r][ep] +
				float64(adj.CycleCount()-1)*e.period +
				e.credit(e.spNode[qsp], e.epNode[ep])
			if sl := req - (q.mean[b+kk] + e.nSigma*q.std[b+kk]); sl < slack {
				slack, sp, rf = sl, qsp, int8(r)
			}
		}
	}
	return slack, sp, rf
}

// LaneSlacks returns lane s's cached endpoint slacks from the last
// evaluation. The slice is the engine's own; callers must not mutate it.
func (e *Engine) LaneSlacks(s int) []float64 {
	nEP := len(e.epPin)
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

// CriticalStartpoint returns the startpoint index and data transition behind
// endpoint i's last-evaluated lane-0 slack (-1 when untimed).
func (e *Engine) CriticalStartpoint(i int) (sp int32, rf int) {
	return e.epSP[i], int(e.epRF[i])
}

// Run performs a full forward evaluation: Propagate followed by EvalSlacks.
func (e *Engine) Run() []float64 {
	e.Propagate()
	return e.EvalSlacks()
}
