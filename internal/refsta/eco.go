package refsta

import (
	"fmt"

	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
)

// ArcDelta is one re-annotated arc delay produced by EstimateECO: the arc id
// (shared with the circuitops extraction and therefore with INSTA's graph)
// and its predicted post-change delay distributions.
type ArcDelta struct {
	ArcID int32
	Delay [2]num.Dist
}

// affectedArcs enumerates the arcs whose delay annotation a resize of cell c
// touches under the frozen-slew estimate_eco assumption:
//
//  1. c's own cell arcs (new timing tables),
//  2. the net arcs driving c's input pins (new pin capacitance),
//  3. the cell arcs of each fan-in driver (its load changed).
//
// Exactly the paper's "neighbouring cells remain unchanged" locality.
func (e *Engine) affectedArcs(c netlist.CellID) []int32 {
	var out []int32
	seen := make(map[int32]bool)
	add := func(ai int32) {
		if !seen[ai] {
			seen[ai] = true
			out = append(out, ai)
		}
	}
	d := e.D
	for _, p := range d.Cells[c].Pins {
		pin := &d.Pins[p]
		if pin.Dir == netlist.Output {
			for _, ai := range e.fanin.of(p) {
				add(ai) // the cell's own arcs
			}
			continue
		}
		if pin.IsClock {
			continue // clock pins are fed by the ideal clock tree
		}
		for _, ai := range e.fanin.of(p) {
			add(ai) // fan-in net arc into this input pin
			drv := e.Arcs[ai].From
			if d.Pins[drv].Cell == netlist.NoCell {
				continue // primary-input driver has no cell arcs
			}
			for _, dai := range e.fanin.of(drv) {
				add(dai) // fan-in driver's cell arcs (load change)
			}
		}
	}
	return out
}

// EstimateECO predicts, without committing anything and with all slews
// frozen at their current values, the arc delay annotations that would
// result from swapping cell c to library cell newLib. This is the engine's
// equivalent of PrimeTime's estimate_eco (paper §III-H, Fig. 7).
func (e *Engine) EstimateECO(c netlist.CellID, newLib int32) ([]ArcDelta, error) {
	d := e.D
	oldLib := d.Cells[c].LibCell
	oc, nc := e.Lib.Cell(oldLib), e.Lib.Cell(newLib)
	if oc.Footprint != nc.Footprint {
		return nil, fmt.Errorf("refsta: estimate_eco across footprints %s -> %s", oc.Footprint, nc.Footprint)
	}
	deltas := make([]ArcDelta, 0, 8)
	for _, ai := range e.affectedArcs(c) {
		a := &e.Arcs[ai]
		var delta ArcDelta
		delta.ArcID = ai
		switch {
		case a.Kind == CellArc && a.Cell == c:
			// The resized cell's own arcs: new tables, same load and slews.
			la := &nc.Arcs[a.LibArc]
			load := e.load[a.To]
			for rf := 0; rf < 2; rf++ {
				s := e.frozenWorstSlew(a, rf)
				delta.Delay[rf] = num.Dist{Mean: la.Delay[rf].Lookup(s, load), Std: la.Sigma[rf].Lookup(s, load)}
			}
		case a.Kind == NetArc:
			// Fan-in net arc: sink pin capacitance changes.
			newCap := nc.PinCap[d.LocalPinName(a.To)]
			dd := e.Par.BranchDelay(a.Net, int(a.SinkIdx), newCap)
			delta.Delay[0], delta.Delay[1] = dd, dd
		default:
			// Fan-in driver's cell arc: load changes by the pin-cap delta of
			// the sink it drives into cell c.
			newLoad := e.load[a.To] + e.loadDelta(a.To, c, oc, nc)
			dlc := e.Lib.Cell(d.Cells[a.Cell].LibCell)
			la := &dlc.Arcs[a.LibArc]
			for rf := 0; rf < 2; rf++ {
				s := e.frozenWorstSlew(a, rf)
				delta.Delay[rf] = num.Dist{Mean: la.Delay[rf].Lookup(s, newLoad), Std: la.Sigma[rf].Lookup(s, newLoad)}
			}
		}
		deltas = append(deltas, delta)
	}
	return deltas, nil
}

// frozenWorstSlew returns the current worst input slew feeding arc a for
// output transition rf (the estimate_eco frozen-slew assumption).
func (e *Engine) frozenWorstSlew(a *Arc, rf int) float64 {
	inRFs, n := a.Sense.InRFs(rf)
	s := e.slew[inRFs[0]][a.From]
	for i := 1; i < n; i++ {
		if v := e.slew[inRFs[i]][a.From]; v > s {
			s = v
		}
	}
	return s
}

// loadDelta computes how driver pin drv's load changes when cell c swaps
// from oc to nc: the pin-cap difference summed over the sinks of drv's net
// that belong to c.
func (e *Engine) loadDelta(drv netlist.PinID, c netlist.CellID, oc, nc *liberty.Cell) float64 {
	d := e.D
	net := d.Pins[drv].Net
	var delta float64
	for _, s := range d.Nets[net].Sinks {
		if d.Pins[s].Cell == c {
			name := d.LocalPinName(s)
			delta += nc.PinCap[name] - oc.PinCap[name]
		}
	}
	return delta
}

// ResizeCell commits a library swap of cell c and marks the affected cone
// dirty. Call UpdateTimingIncremental (or Full) afterwards to refresh
// timing. It returns the previous library cell id so callers can roll back.
func (e *Engine) ResizeCell(c netlist.CellID, newLib int32) (oldLib int32, err error) {
	d := e.D
	oldLib = d.Cells[c].LibCell
	if oldLib == newLib {
		return oldLib, nil
	}
	oc, nc := e.Lib.Cell(oldLib), e.Lib.Cell(newLib)
	if oc.Footprint != nc.Footprint {
		return oldLib, fmt.Errorf("refsta: resize across footprints %s -> %s", oc.Footprint, nc.Footprint)
	}
	for _, ai := range e.affectedArcs(c) {
		e.MarkDirty(e.Arcs[ai].To)
	}
	d.Cells[c].LibCell = newLib
	if d.Cells[c].Seq {
		// Setup requirement may differ between drive strengths.
		lcNew := e.Lib.Cell(newLib)
		dp := d.CellPin(c, lcNew.DataPin)
		if i, ok := e.epIndex[dp]; ok {
			e.EPSetup[i] = lcNew.Setup
		}
	}
	return oldLib, nil
}

// RefreshNetParasitics rebuilds parasitics for the given nets from current
// placement and marks their cones dirty. The placer calls this after moving
// cells; follow with an update-timing call.
func (e *Engine) RefreshNetParasitics(nets []netlist.NetID) {
	for _, n := range nets {
		e.Par.RebuildNet(e.D, n)
		net := &e.D.Nets[n]
		// Driver's own fan-in arcs see a new load; sinks see new wire delay.
		e.MarkDirty(net.Driver)
		for _, s := range net.Sinks {
			e.MarkDirty(s)
		}
	}
}
