package refsta

// Frozen-slew estimation for structural ECOs (buffer insertion and cell
// moves), the topo-session counterparts of EstimateECO: each predicts arc
// delay annotations without committing anything to the design, parasitics or
// timing state, so they are safe to call while the engine is shared read-only
// across serving sessions.

import (
	"fmt"
	"math"

	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/rc"
)

// EstimateBuffer predicts, with slews frozen at their current values, what a
// buffer (library cell bufLib) inserted on net arc arcID at fractional
// position frac along the branch (0 = at the driver, 1 = at the sink) does to
// the arc annotations:
//
//   - cell is the buffer's gate delay. The input slew is the driver's current
//     slew degraded across the driver-side wire fraction; the output load is
//     the sink-side wire fraction plus the sink pin capacitance. It is what a
//     topo InsertBuffer op carries as its cell-arc delay; the op itself splits
//     the existing wire annotation frac/(1-frac).
//   - driver re-annotates the driver's cell arcs: the driver sheds the
//     sink-side wire fraction and the sink pin, seeing the buffer's input
//     capacitance instead, so its cell arcs re-evaluate at the reduced load.
//     This is the half of buffering that *improves* timing — every other sink
//     of the net rides the faster driver for free. It is empty when the
//     driver is a primary input (no cell arcs to re-annotate).
func (e *Engine) EstimateBuffer(arcID int32, bufLib int32, frac float64) (cell [2]num.Dist, driver []ArcDelta, err error) {
	if arcID < 0 || int(arcID) >= len(e.Arcs) {
		return cell, nil, fmt.Errorf("refsta: estimate_buffer: arc %d out of range [0,%d)", arcID, len(e.Arcs))
	}
	a := &e.Arcs[arcID]
	if a.Kind != NetArc {
		return cell, nil, fmt.Errorf("refsta: estimate_buffer: arc %d is not a net arc", arcID)
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return cell, nil, fmt.Errorf("refsta: estimate_buffer: position %v outside [0,1]", frac)
	}
	if bufLib < 0 || int(bufLib) >= len(e.Lib.Cells) {
		return cell, nil, fmt.Errorf("refsta: estimate_buffer: library cell %d out of range", bufLib)
	}
	lc := e.Lib.Cell(bufLib)
	if len(lc.Arcs) != 1 || lc.Arcs[0].Sense != liberty.PositiveUnate || len(lc.Inputs) != 1 {
		return cell, nil, fmt.Errorf("refsta: estimate_buffer: library cell %s is not a buffer", lc.Name)
	}
	la := &lc.Arcs[0]
	branch := e.Par.Nets[a.Net].Branch[a.SinkIdx]
	load := (1-frac)*branch.C + e.pinCap(a.To)
	for rf := 0; rf < 2; rf++ {
		s := e.Par.DegradeSlew(e.slew[rf][a.From], frac*a.Delay[rf].Mean)
		cell[rf] = num.Dist{Mean: la.Delay[rf].Lookup(s, load), Std: la.Sigma[rf].Lookup(s, load)}
	}
	drv := e.D.Nets[a.Net].Driver
	capDelta := lc.PinCap[lc.Inputs[0]] - (1-frac)*branch.C - e.pinCap(a.To)
	return cell, e.retimeDriver(nil, drv, e.load[drv]+capDelta), nil
}

// retimeDriver appends to deltas the cell arcs into driver pin drv re-timed
// at output load newLoad with slews frozen; a primary-input driver has none.
func (e *Engine) retimeDriver(deltas []ArcDelta, drv netlist.PinID, newLoad float64) []ArcDelta {
	d := e.D
	if d.Pins[drv].Cell == netlist.NoCell {
		return deltas
	}
	dlc := e.Lib.Cell(d.Cells[d.Pins[drv].Cell].LibCell)
	for _, ai := range e.fanin.of(drv) {
		a := &e.Arcs[ai]
		if a.Kind != CellArc {
			continue
		}
		la := &dlc.Arcs[a.LibArc]
		delta := ArcDelta{ArcID: ai}
		for rf := 0; rf < 2; rf++ {
			s := e.frozenWorstSlew(a, rf)
			delta.Delay[rf] = num.Dist{Mean: la.Delay[rf].Lookup(s, newLoad), Std: la.Sigma[rf].Lookup(s, newLoad)}
		}
		deltas = append(deltas, delta)
	}
	return deltas
}

// movedPinPos returns pin p's position under the hypothesis that cell c sits
// at (x, y); pins not owned by c keep their current position.
func (e *Engine) movedPinPos(p netlist.PinID, c netlist.CellID, x, y float64) (float64, float64) {
	if e.D.Pins[p].Cell == c {
		return x, y
	}
	return e.D.PinPos(p)
}

// movedBranch recomputes branch s of net n from hypothetical geometry —
// rc.RebuildNet's math without touching the shared Parasitics.
func (e *Engine) movedBranch(n netlist.NetID, s int, c netlist.CellID, x, y float64) rc.Branch {
	net := &e.D.Nets[n]
	dx, dy := e.movedPinPos(net.Driver, c, x, y)
	sx, sy := e.movedPinPos(net.Sinks[s], c, x, y)
	p := e.Par.Params
	l := math.Abs(sx-dx) + math.Abs(sy-dy) + p.MinLen
	return rc.Branch{Len: l, R: p.RPerUnit * l, C: p.CPerUnit * l}
}

// NetArc resolves the net arc id feeding branch sinkIdx of net n, or -1 —
// the id buffering clients hand to structural sessions as insertion targets.
func (e *Engine) NetArc(n netlist.NetID, sinkIdx int) int32 {
	return e.netArcOf(n, sinkIdx)
}

// netArcOf resolves the net arc id for branch sinkIdx of net n.
func (e *Engine) netArcOf(n netlist.NetID, sinkIdx int) int32 {
	sink := e.D.Nets[n].Sinks[sinkIdx]
	for _, ai := range e.fanin.of(sink) {
		a := &e.Arcs[ai]
		if a.Kind == NetArc && a.Net == n && int(a.SinkIdx) == sinkIdx {
			return ai
		}
	}
	return -1
}

// EstimateMove predicts, with slews frozen, the arc delay annotations that
// would result from placing cell c at (x, y): the wire arcs of every net
// touching c (Elmore over the new Manhattan lengths) and the cell arcs of
// every driver whose capacitive load shifts with the wire — c's own output
// arcs and the fan-in drivers into c. Like EstimateECO this mutates nothing;
// the design, parasitics and timing state are read-only throughout.
func (e *Engine) EstimateMove(c netlist.CellID, x, y float64) ([]ArcDelta, error) {
	d := e.D
	if int(c) < 0 || int(c) >= len(d.Cells) {
		return nil, fmt.Errorf("refsta: estimate_move: cell %d out of range", c)
	}
	if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return nil, fmt.Errorf("refsta: estimate_move: position (%v,%v) not finite", x, y)
	}
	touched := map[netlist.NetID]bool{}
	for _, p := range d.Cells[c].Pins {
		if n := d.Pins[p].Net; n != netlist.NoNet {
			touched[n] = true
		}
	}
	var deltas []ArcDelta
	for n := range touched {
		net := &d.Nets[n]
		var capDelta float64
		for s := range net.Sinks {
			old := e.Par.Nets[n].Branch[s]
			nb := e.movedBranch(n, s, c, x, y)
			capDelta += nb.C - old.C
			if nb.Len == old.Len {
				continue // branch geometry unaffected by the move
			}
			ai := e.netArcOf(n, s)
			if ai < 0 {
				continue
			}
			mean := nb.R * (nb.C/2 + e.pinCap(net.Sinks[s]))
			dd := num.Dist{Mean: mean, Std: e.Par.Params.WireSigmaFrac * mean}
			deltas = append(deltas, ArcDelta{ArcID: ai, Delay: [2]num.Dist{dd, dd}})
		}
		if capDelta != 0 {
			deltas = e.retimeDriver(deltas, net.Driver, e.load[net.Driver]+capDelta)
		}
	}
	return deltas, nil
}

// MoveCell commits a placement change of cell c: updates the design, rebuilds
// the parasitics of every net touching c, and marks the affected cones dirty.
// Returns the previous location so callers can roll back. Follow with an
// update-timing call.
func (e *Engine) MoveCell(c netlist.CellID, x, y float64) (oldX, oldY float64, err error) {
	d := e.D
	if int(c) < 0 || int(c) >= len(d.Cells) {
		return 0, 0, fmt.Errorf("refsta: move_cell: cell %d out of range", c)
	}
	oldX, oldY = d.Cells[c].X, d.Cells[c].Y
	d.Cells[c].X, d.Cells[c].Y = x, y
	nets := make([]netlist.NetID, 0, 4)
	seen := map[netlist.NetID]bool{}
	for _, p := range d.Cells[c].Pins {
		if n := d.Pins[p].Net; n != netlist.NoNet && !seen[n] {
			seen[n] = true
			nets = append(nets, n)
		}
	}
	e.RefreshNetParasitics(nets)
	return oldX, oldY, nil
}
