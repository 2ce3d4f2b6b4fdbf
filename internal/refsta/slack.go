package refsta

import (
	"math"

	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/sched"
)

// computeSlacks evaluates every endpoint's setup slack and, with hold on, its
// hold slack. Endpoints are independent — each pool index writes its own
// epSlack / epHoldSlack entry from lists nothing is writing any more.
func (e *Engine) computeSlacks(pool *sched.Pool) {
	hold := e.HoldEnabled()
	pool.RunTagged("refsta.slack", -1, len(e.EPs), func(lo, hi int) {
		for i := int32(lo); i < int32(hi); i++ {
			e.epSlack[i] = e.setupSlack(i)
			if hold {
				e.epHoldSlack[i] = e.holdSlack(i)
			}
		}
	})
}

// setupSlack evaluates the setup slack of endpoint index i:
//
//	slack(ep, rf, sp) = m*T + earlyClk(capture) + credit(sp, ep)
//	                    - setup[rf] - uncertainty - arrivalCorner(ep, rf, sp)
//
// minimized over data transitions and startpoints, honouring false-path and
// multicycle exceptions per (startpoint, endpoint) pair. An endpoint with no
// timed arrival gets +Inf slack.
func (e *Engine) setupSlack(i int32) float64 {
	T := e.Con.Clock.Period
	U := e.Con.Clock.Uncertainty
	ep := e.EPs[i]
	slack := math.Inf(1)
	earlyClk := e.earlyClockAt(i)
	extMargin := 0.0
	if e.D.Pins[ep].Cell == netlist.NoCell {
		extMargin = e.Con.OutputDelay[ep]
	}
	for rf := 0; rf < 2; rf++ {
		setup := e.EPSetup[i][rf]
		for _, entry := range e.arr[rf][ep] {
			spPin := e.SPs[entry.sp]
			adj := e.Exc.Lookup(spPin, ep)
			if adj.False {
				continue
			}
			m := float64(adj.CycleCount())
			req := m*T + earlyClk + e.credit(entry.sp, i) - setup - U - extMargin
			if s := req - entry.dist.Corner(e.Cfg.NSigma); s < slack {
				slack = s
			}
		}
	}
	return slack
}

// EndpointSlacks returns the per-endpoint setup slack, aligned with
// Endpoints(). Untimed endpoints carry +Inf.
func (e *Engine) EndpointSlacks() []float64 {
	out := make([]float64, len(e.epSlack))
	copy(out, e.epSlack)
	return out
}

// WNS returns the worst negative slack (0 when nothing violates).
func (e *Engine) WNS() float64 {
	w := 0.0
	for _, s := range e.epSlack {
		if s < w {
			w = s
		}
	}
	return w
}

// TNS returns the total negative slack: the sum of negative endpoint slacks.
func (e *Engine) TNS() float64 {
	t := 0.0
	for _, s := range e.epSlack {
		if s < 0 {
			t += s
		}
	}
	return t
}

// NumViolations counts endpoints with negative slack.
func (e *Engine) NumViolations() int {
	n := 0
	for _, s := range e.epSlack {
		if s < 0 {
			n++
		}
	}
	return n
}

// SPArrival is an exported startpoint-resolved arrival entry.
type SPArrival struct {
	SP   int32 // startpoint index into Startpoints()
	Dist num.Dist
}

// Arrivals returns the startpoint-resolved arrival entries at pin p for
// transition rf, sorted by startpoint index.
func (e *Engine) Arrivals(rf int, p netlist.PinID) []SPArrival {
	in := e.arr[rf][p]
	out := make([]SPArrival, len(in))
	for i, a := range in {
		out[i] = SPArrival{SP: a.sp, Dist: a.dist}
	}
	return out
}

// WorstArrivalCorner returns the maximum corner arrival at pin p for
// transition rf, or -Inf when the pin has no arrival.
func (e *Engine) WorstArrivalCorner(rf int, p netlist.PinID) float64 {
	w := math.Inf(-1)
	for _, a := range e.arr[rf][p] {
		if c := a.dist.Corner(e.Cfg.NSigma); c > w {
			w = c
		}
	}
	return w
}

// PathStep is one arc on a traced critical path.
type PathStep struct {
	ArcID int32
	Pin   netlist.PinID // the To pin of the step
	RF    int
}

// WorstPath traces the data path of endpoint index ep's worst slack back to
// its startpoint, returning the steps endpoint-first. It returns nil when the
// endpoint has no timed arrival. The trace follows, at each pin, the fan-in
// arc whose shifted parent arrival reproduces the pin's stored arrival for
// the critical startpoint — the standard reference-tool path expansion.
func (e *Engine) WorstPath(ep int32) []PathStep {
	p := e.EPs[ep]
	T := e.Con.Clock.Period
	U := e.Con.Clock.Uncertainty
	earlyClk := e.earlyClockAt(ep)
	extMargin := 0.0
	if e.D.Pins[p].Cell == netlist.NoCell {
		extMargin = e.Con.OutputDelay[p]
	}

	bestSlack := math.Inf(1)
	bestRF, bestSP := -1, int32(-1)
	for rf := 0; rf < 2; rf++ {
		for _, entry := range e.arr[rf][p] {
			adj := e.Exc.Lookup(e.SPs[entry.sp], p)
			if adj.False {
				continue
			}
			m := float64(adj.CycleCount())
			req := m*T + earlyClk + e.credit(entry.sp, ep) - e.EPSetup[ep][rf] - U - extMargin
			if s := req - entry.dist.Corner(e.Cfg.NSigma); s < bestSlack {
				bestSlack, bestRF, bestSP = s, rf, entry.sp
			}
		}
	}
	if bestRF < 0 {
		return nil
	}

	var steps []PathStep
	cur, rf, sp := p, bestRF, bestSP
	for !e.isSP[cur] {
		found := false
		var pickArc int32
		var pickRF int
		bestCorner := math.Inf(-1)
		for _, ai := range e.fanin.of(cur) {
			a := &e.Arcs[ai]
			inRFs, n := a.Sense.InRFs(rf)
			for i := 0; i < n; i++ {
				prf := inRFs[i]
				if d, ok := lookupSP(e.arr[prf][a.From], sp); ok {
					c := d.Add(a.Delay[rf]).Corner(e.Cfg.NSigma)
					if c > bestCorner {
						bestCorner, pickArc, pickRF, found = c, ai, prf, true
					}
				}
			}
		}
		if !found {
			break
		}
		steps = append(steps, PathStep{ArcID: pickArc, Pin: cur, RF: rf})
		cur, rf = e.Arcs[pickArc].From, pickRF
	}
	return steps
}

func lookupSP(entries []spArr, sp int32) (d num.Dist, ok bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case entries[mid].sp < sp:
			lo = mid + 1
		case entries[mid].sp > sp:
			hi = mid
		default:
			return entries[mid].dist, true
		}
	}
	return d, false
}
