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
			e.epSlack[i], _, _ = e.setupSlack(i)
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
// multicycle exceptions per (startpoint, endpoint) pair, together with the
// transition and startpoint that attain it (the first in scan order among
// equals). An endpoint with no timed arrival gets +Inf slack, rf -1 and sp -1.
// It reads the arrival lists as they stand: computeSlacks runs it inside
// arrivals(), the path reports after it.
func (e *Engine) setupSlack(i int32) (slack float64, rf int, sp int32) {
	T := e.Con.Clock.Period
	U := e.Con.Clock.Uncertainty
	ep := e.EPs[i]
	slack, rf, sp = math.Inf(1), -1, -1
	earlyClk := e.earlyClockAt(i)
	extMargin := 0.0
	if e.D.Pins[ep].Cell == netlist.NoCell {
		extMargin = e.Con.OutputDelay[ep]
	}
	for r := 0; r < 2; r++ {
		setup := e.EPSetup[i][r]
		for _, entry := range e.arr[r][ep] {
			adj := e.Exc.Lookup(e.SPs[entry.sp], ep)
			if adj.False {
				continue
			}
			m := float64(adj.CycleCount())
			req := m*T + earlyClk + e.credit(entry.sp, i) - setup - U - extMargin
			if s := req - entry.dist.Corner(e.Cfg.NSigma); s < slack {
				slack, rf, sp = s, r, entry.sp
			}
		}
	}
	return slack, rf, sp
}

// EndpointSlacks returns the per-endpoint setup slack, aligned with
// Endpoints(). Untimed endpoints carry +Inf.
func (e *Engine) EndpointSlacks() []float64 {
	e.arrivals()
	out := make([]float64, len(e.epSlack))
	copy(out, e.epSlack)
	return out
}

// WNS returns the worst negative slack (0 when nothing violates).
func (e *Engine) WNS() float64 {
	e.arrivals()
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
	e.arrivals()
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
	e.arrivals()
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
	e.arrivals()
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
	e.arrivals()
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
	e.arrivals()
	_, rf, sp := e.setupSlack(ep)
	if rf < 0 {
		return nil
	}

	var steps []PathStep
	cur := e.EPs[ep]
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
