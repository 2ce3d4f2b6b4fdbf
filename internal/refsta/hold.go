package refsta

// Hold (early/min-delay) analysis. The paper's INSTA handles the late/setup
// check (WNS/TNS are setup metrics); a production signoff engine also checks
// hold: the earliest data arrival at a flop must not race past the capture
// edge. Early arrivals propagate through the same merge as late ones
// (mergeInto with early set: per startpoint the smaller early corner wins):
//
//	holdSlack(ep, rf, sp) = earlyArrival(ep, rf, sp) corner
//	                      - (lateCaptureClock + hold[rf] + holdUncertainty)
//	                      + credit(sp, ep)
//
// minimized over data transitions and startpoints. The early corner of a
// distribution is mean - nSigma*sigma; launch arrivals seed from the same
// clock distributions; false paths are honoured (multicycle does not move
// the hold check, the standard single-cycle-hold convention).

import (
	"math"

	"insta/internal/netlist"
)

// enableHold turns on early-arrival propagation. It must be called before
// the next UpdateTimingFull; New-created engines have it off so the setup
// experiments pay nothing for it. The early lists are allocated by the
// arrival sweep that first builds them.
func (e *Engine) enableHold() {
	if e.HoldEnabled() {
		return
	}
	e.epHoldSlack = make([]float64, len(e.EPs))
	e.EPHold = make([][2]float64, len(e.EPs))
	for i, p := range e.EPs {
		pin := &e.D.Pins[p]
		if pin.Cell == netlist.NoCell {
			continue // primary outputs carry no hold check here
		}
		lc := e.Lib.Cell(e.D.Cells[pin.Cell].LibCell)
		e.EPHold[i] = lc.Hold
	}
}

// EnableHoldAnalysis switches on hold checking and refreshes timing.
func (e *Engine) EnableHoldAnalysis() {
	e.enableHold()
	e.UpdateTimingFull()
}

// HoldEnabled reports whether early-arrival propagation is active.
func (e *Engine) HoldEnabled() bool { return e.epHoldSlack != nil }

// holdSlack evaluates the hold slack of endpoint index i, a flip-flop data
// pin. Primary outputs keep +Inf (no hold check against the external world
// here).
func (e *Engine) holdSlack(i int32) float64 {
	ep := e.EPs[i]
	if e.D.Pins[ep].Cell == netlist.NoCell {
		return math.Inf(1)
	}
	captureLate := 0.0
	if e.D.Clock != nil {
		captureLate = e.D.Clock.Arrival(e.EPNode[i]).Corner(e.Cfg.NSigma)
	}
	hu := e.Con.Clock.HoldUncertainty
	slack := math.Inf(1)
	for rf := 0; rf < 2; rf++ {
		req := captureLate + e.EPHold[i][rf] + hu
		for _, entry := range e.arrMin[rf][ep] {
			adj := e.Exc.Lookup(e.SPs[entry.sp], ep)
			if adj.False {
				continue
			}
			s := entry.dist.EarlyCorner(e.Cfg.NSigma) - req + e.credit(entry.sp, i)
			if s < slack {
				slack = s
			}
		}
	}
	return slack
}

// HoldSlacks returns the per-endpoint hold slack (EnableHoldAnalysis first);
// +Inf marks unchecked endpoints.
func (e *Engine) HoldSlacks() []float64 {
	e.arrivals()
	out := make([]float64, len(e.epHoldSlack))
	copy(out, e.epHoldSlack)
	return out
}

// HoldWNS returns the worst negative hold slack (0 when clean).
func (e *Engine) HoldWNS() float64 {
	e.arrivals()
	w := 0.0
	for _, s := range e.epHoldSlack {
		if s < w {
			w = s
		}
	}
	return w
}

// HoldTNS returns the total negative hold slack.
func (e *Engine) HoldTNS() float64 {
	e.arrivals()
	t := 0.0
	for _, s := range e.epHoldSlack {
		if s < 0 {
			t += s
		}
	}
	return t
}

// EarlyArrivals returns the startpoint-resolved early arrivals at pin p.
func (e *Engine) EarlyArrivals(rf int, p netlist.PinID) []SPArrival {
	e.arrivals()
	in := e.arrMin[rf][p]
	out := make([]SPArrival, len(in))
	for i, a := range in {
		out[i] = SPArrival{SP: a.sp, Dist: a.dist}
	}
	return out
}
