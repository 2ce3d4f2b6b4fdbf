package refsta

import (
	"math"

	"insta/internal/liberty"
	"insta/internal/netlist"
)

// PinSlacks computes the classic graph-based per-pin worst slack: required
// times are seeded at endpoints from their evaluated slacks (so CPPR and
// exceptions are already folded in) and propagated backward as
// req(p) = min over fanout arcs (req(to) - delay), while arrivals use the
// worst corner per pin. The result, indexed by pin, is what slack-driven
// net weighting consumes (DREAMPlace 4.0's criticality source). Pins with no
// timed fanout cone carry +Inf.
func (e *Engine) PinSlacks() [][2]float64 {
	n := e.D.NumPins()
	req := [2][]float64{make([]float64, n), make([]float64, n)}
	for rf := 0; rf < 2; rf++ {
		for i := range req[rf] {
			req[rf][i] = math.Inf(1)
		}
	}
	// Seed endpoints: required corner = arrival corner + slack.
	for i, ep := range e.EPs {
		s := e.epSlack[i]
		if math.IsInf(s, 1) {
			continue
		}
		for rf := 0; rf < 2; rf++ {
			if a := e.WorstArrivalCorner(rf, ep); !math.IsInf(a, -1) {
				req[rf][ep] = a + s
			}
		}
	}
	// Backward sweep in reverse level order.
	for li := len(e.Lv.Order) - 1; li >= 0; li-- {
		p := netlist.PinID(e.Lv.Order[li])
		for _, ai := range e.fanout.of(p) {
			a := &e.Arcs[ai]
			for outRF := 0; outRF < 2; outRF++ {
				r := req[outRF][a.To]
				if math.IsInf(r, 1) {
					continue
				}
				cand := r - a.Delay[outRF].Corner(e.Cfg.NSigma)
				inRFs, nn := a.Sense.InRFs(outRF)
				for i := 0; i < nn; i++ {
					if cand < req[inRFs[i]][p] {
						req[inRFs[i]][p] = cand
					}
				}
			}
		}
	}
	out := make([][2]float64, n)
	for p := 0; p < n; p++ {
		for rf := 0; rf < 2; rf++ {
			a := e.WorstArrivalCorner(rf, netlist.PinID(p))
			if math.IsInf(a, -1) || math.IsInf(req[rf][p], 1) {
				out[p][rf] = math.Inf(1)
				continue
			}
			out[p][rf] = req[rf][p] - a
		}
	}
	return out
}

// NetSlack reduces PinSlacks output to one worst slack per net, taken at the
// driver pin over both transitions.
func NetSlack(e *Engine, pinSlacks [][2]float64) []float64 {
	out := make([]float64, len(e.D.Nets))
	for i := range e.D.Nets {
		drv := e.D.Nets[i].Driver
		s := pinSlacks[drv][liberty.Rise]
		if f := pinSlacks[drv][liberty.Fall]; f < s {
			s = f
		}
		out[i] = s
	}
	return out
}
