package refsta

import (
	"math"
	"testing"
)

func TestEstimateBufferMatchesTableLookup(t *testing.T) {
	m, e := newMiniEngine(t)
	buf, _ := m.lib.CellByName("BUF_X4")
	var arc int32 = -1
	for i := range e.Arcs {
		if e.Arcs[i].Kind == NetArc {
			arc = int32(i)
			break
		}
	}
	a := &e.Arcs[arc]
	d, _, err := e.EstimateBuffer(arc, buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lc := e.Lib.Cell(buf)
	la := &lc.Arcs[0]
	branch := e.Par.Nets[a.Net].Branch[a.SinkIdx]
	load := 0.5*branch.C + e.pinCap(a.To)
	for rf := 0; rf < 2; rf++ {
		s := e.Par.DegradeSlew(e.slew[rf][a.From], 0.5*a.Delay[rf].Mean)
		if want := la.Delay[rf].Lookup(s, load); d[rf].Mean != want {
			t.Fatalf("rf %d mean %v, want %v", rf, d[rf].Mean, want)
		}
		if d[rf].Std < 0 || math.IsNaN(d[rf].Std) {
			t.Fatalf("rf %d bad sigma %v", rf, d[rf].Std)
		}
	}

	// Invalid inputs are rejected.
	if _, _, err := e.EstimateBuffer(-1, buf, 0.5); err == nil {
		t.Fatal("bad arc accepted")
	}
	if _, _, err := e.EstimateBuffer(arc, buf, 1.5); err == nil {
		t.Fatal("bad frac accepted")
	}
	inv, _ := m.lib.CellByName("INV_X1")
	if _, _, err := e.EstimateBuffer(arc, inv, 0.5); err == nil {
		t.Fatal("non-buffer library cell accepted")
	}
	for i := range e.Arcs {
		if e.Arcs[i].Kind == CellArc {
			if _, _, err := e.EstimateBuffer(int32(i), buf, 0.5); err == nil {
				t.Fatal("cell arc accepted")
			}
			break
		}
	}
}

func TestEstimateMoveMatchesCommittedMove(t *testing.T) {
	m, e := newMiniEngine(t)
	d := e.D
	c := m.inv1
	nx, ny := d.Cells[c].X+17, d.Cells[c].Y+9

	deltas, err := e.EstimateMove(c, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("move predicted no arc changes")
	}

	// Estimation must not have touched shared state.
	if d.Cells[c].X != nx-17 || d.Cells[c].Y != ny-9 {
		t.Fatal("EstimateMove moved the cell")
	}

	// Commit the same move; every predicted *net* arc annotation must match
	// the committed one exactly (wire Elmore does not depend on slew, so the
	// frozen-slew estimate is exact for wires).
	if _, _, err := e.MoveCell(c, nx, ny); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	netArcs := 0
	for _, del := range deltas {
		a := &e.Arcs[del.ArcID]
		if a.Kind != NetArc {
			continue
		}
		netArcs++
		for rf := 0; rf < 2; rf++ {
			if got := a.Delay[rf]; got != del.Delay[rf] {
				t.Fatalf("net arc %d rf %d: committed %v, predicted %v", del.ArcID, rf, got, del.Delay[rf])
			}
		}
	}
	if netArcs == 0 {
		t.Fatal("no net arcs in the predicted set")
	}
}

func TestEstimateMoveRollsBack(t *testing.T) {
	m, e := newMiniEngine(t)
	wnsBefore := e.WNS()
	c := m.inv2
	ox, oy, err := e.MoveCell(c, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	if _, _, err := e.MoveCell(c, ox, oy); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	if got := e.WNS(); got != wnsBefore {
		t.Fatalf("WNS %v after move+rollback, want %v", got, wnsBefore)
	}
}

func TestEstimateMoveNoOpAtCurrentLocation(t *testing.T) {
	m, e := newMiniEngine(t)
	d := e.D
	c := m.inv1
	deltas, err := e.EstimateMove(c, d.Cells[c].X, d.Cells[c].Y)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("in-place move predicted %d arc changes", len(deltas))
	}
}
