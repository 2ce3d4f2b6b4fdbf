package refsta

import (
	"math"
	"strings"
	"testing"

	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/rc"
	"insta/internal/sdc"
)

// miniDesign builds a small design exercising launch/capture clocking, CPPR
// branch sharing, inversion, and primary IO:
//
//	clock tree: root -- bA -- {la1 (ff1), la2 (ff2)}
//	                 \- bB -- {lb1 (ff3)}
//	data: ff1.Q -> inv1 -> ff2.D      (same clock branch: large CPPR credit)
//	      ff1.Q -> inv2 -> ff3.D      (cross branch: root-only credit)
//	      pi a -> buf1 -> ff1.D
//	      ff2.Q -> z ; ff3.Q -> z2    (primary outputs)
//
// All cells sit at the origin so both data paths have identical parasitics.
type mini struct {
	d                               *netlist.Design
	lib                             *liberty.Library
	con                             *sdc.Constraints
	par                             *rc.Parasitics
	ff1, ff2, ff3, inv1, inv2, buf1 netlist.CellID
}

func buildMini(t testing.TB) *mini {
	t.Helper()
	lib := liberty.NewSynthetic(liberty.TechN3())
	d := netlist.New("mini")

	dffID, _ := lib.CellByName("DFF_X1")
	invID, _ := lib.CellByName("INV_X1")
	bufID, _ := lib.CellByName("BUF_X1")

	addDFF := func(name string) (c netlist.CellID, dPin, cpPin, qPin netlist.PinID) {
		c = d.AddCell(name, dffID, true)
		dPin = d.AddPin(c, "D", netlist.Input, false)
		cpPin = d.AddPin(c, "CP", netlist.Input, true)
		qPin = d.AddPin(c, "Q", netlist.Output, false)
		return
	}
	addInv := func(name string, id int32) (c netlist.CellID, a, y netlist.PinID) {
		c = d.AddCell(name, id, false)
		a = d.AddPin(c, "A", netlist.Input, false)
		y = d.AddPin(c, "Y", netlist.Output, false)
		return
	}

	ff1, ff1d, ff1cp, ff1q := addDFF("ff1")
	ff2, ff2d, ff2cp, ff2q := addDFF("ff2")
	ff3, ff3d, ff3cp, ff3q := addDFF("ff3")
	inv1, inv1a, inv1y := addInv("inv1", invID)
	inv2, inv2a, inv2y := addInv("inv2", invID)
	buf1, buf1a, buf1y := addInv("buf1", bufID)

	a := d.AddPort("a", netlist.Input)
	z := d.AddPort("z", netlist.Output)
	z2 := d.AddPort("z2", netlist.Output)

	d.Connect(d.AddNet("na", a), buf1a)
	d.Connect(d.AddNet("nb", buf1y), ff1d)
	d.Connect(d.AddNet("nq1", ff1q), inv1a, inv2a)
	d.Connect(d.AddNet("n1", inv1y), ff2d)
	d.Connect(d.AddNet("n2", inv2y), ff3d)
	d.Connect(d.AddNet("nz", ff2q), z)
	d.Connect(d.AddNet("nz2", ff3q), z2)

	ct := netlist.NewClockTree(num.Dist{Mean: 0, Std: 0})
	bA := ct.AddNode(ct.Root(), num.Dist{Mean: 30, Std: 2})
	bB := ct.AddNode(ct.Root(), num.Dist{Mean: 30, Std: 2})
	la1 := ct.AddNode(bA, num.Dist{Mean: 10, Std: 1})
	la2 := ct.AddNode(bA, num.Dist{Mean: 10, Std: 1})
	lb1 := ct.AddNode(bB, num.Dist{Mean: 10, Std: 1})
	ct.BindSink(ff1cp, la1)
	ct.BindSink(ff2cp, la2)
	ct.BindSink(ff3cp, lb1)
	if err := ct.Finalize(); err != nil {
		t.Fatal(err)
	}
	d.Clock = ct

	con := sdc.New(sdc.Clock{Name: "clk", Period: 110, Uncertainty: 5})
	con.InputDelay[a] = num.Dist{Mean: 20, Std: 1}
	con.InputSlew[a] = 10
	con.OutputDelay[z] = 10
	con.OutputDelay[z2] = 10
	con.OutputLoad[z] = 2
	con.OutputLoad[z2] = 2

	par := rc.FromPlacement(d, rc.DefaultParams())
	return &mini{d: d, lib: lib, con: con, par: par,
		ff1: ff1, ff2: ff2, ff3: ff3, inv1: inv1, inv2: inv2, buf1: buf1}
}

func newMiniEngine(t testing.TB) (*mini, *Engine) {
	m := buildMini(t)
	e, err := New(m.d, m.lib, m.con, m.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, e
}

func epOf(t testing.TB, e *Engine, pinName string) int32 {
	t.Helper()
	p, ok := e.D.PinByName(pinName)
	if !ok {
		t.Fatalf("pin %s not found", pinName)
	}
	i, ok := e.epIndex[p]
	if !ok {
		t.Fatalf("pin %s is not an endpoint", pinName)
	}
	return i
}

func TestEngineBasics(t *testing.T) {
	_, e := newMiniEngine(t)
	if got := len(e.Startpoints()); got != 4 { // 3 FF clocks + 1 PI
		t.Errorf("startpoints = %d, want 4", got)
	}
	if got := len(e.Endpoints()); got != 5 { // 3 FF D + 2 PO
		t.Errorf("endpoints = %d, want 5", got)
	}
	for i, s := range e.EndpointSlacks() {
		if math.IsInf(s, 0) || math.IsNaN(s) {
			t.Errorf("endpoint %d slack = %v", i, s)
		}
	}
	if e.TNS() > e.WNS() {
		t.Errorf("TNS %v should be <= WNS %v", e.TNS(), e.WNS())
	}
	if e.WNS() > 0 {
		t.Errorf("WNS must be <= 0, got %v", e.WNS())
	}
	if (e.TNS() < 0) != (e.NumViolations() > 0) {
		t.Error("TNS and violation count disagree")
	}
}

func TestLoadAnnotation(t *testing.T) {
	m, e := newMiniEngine(t)
	q := m.d.CellPin(m.ff1, "Q")
	net := m.d.Pins[q].Net
	inv := m.lib.Cell(m.d.Cells[m.inv1].LibCell)
	want := e.Par.Nets[net].WireCap() + 2*inv.PinCap["A"]
	if got := e.Load(q); math.Abs(got-want) > 1e-9 {
		t.Errorf("load(ff1/Q) = %v, want %v", got, want)
	}
	// Output port load honoured.
	q2 := m.d.CellPin(m.ff2, "Q")
	net2 := m.d.Pins[q2].Net
	want2 := e.Par.Nets[net2].WireCap() + 2 // OutputLoad[z] = 2
	if got := e.Load(q2); math.Abs(got-want2) > 1e-9 {
		t.Errorf("load(ff2/Q) = %v, want %v", got, want2)
	}
}

func TestCPPRCreditSeparatesBranches(t *testing.T) {
	m, e := newMiniEngine(t)
	// Identical data paths; ff2 shares clock branch bA with the launcher,
	// ff3 shares only the (zero-variance) root. Slack difference must equal
	// the credit difference: 2*3*sqrt(4) - 0 = 12.
	slacks := e.EndpointSlacks()
	s2 := slacks[epOf(t, e, "ff2/D")]
	s3 := slacks[epOf(t, e, "ff3/D")]
	if diff := s2 - s3; math.Abs(diff-12) > 1e-9 {
		t.Errorf("slack(ff2/D) - slack(ff3/D) = %v, want 12 (CPPR credit)", diff)
	}
	_ = m
}

func TestInversionUnateness(t *testing.T) {
	m, e := newMiniEngine(t)
	// At inv1/Y, the rise arrival must equal the fall arrival at inv1/A plus
	// the annotated fall->rise arc delay (negative unate inverter).
	aPin := m.d.CellPin(m.inv1, "A")
	yPin := m.d.CellPin(m.inv1, "Y")
	aArr := e.Arrivals(liberty.Fall, aPin)
	yArr := e.Arrivals(liberty.Rise, yPin)
	if len(aArr) != 1 || len(yArr) != 1 {
		t.Fatalf("unexpected arrival counts: %d, %d", len(aArr), len(yArr))
	}
	var cellArc *Arc
	for i := range e.Arcs {
		a := &e.Arcs[i]
		if a.Kind == CellArc && a.From == aPin && a.To == yPin {
			cellArc = a
		}
	}
	if cellArc == nil {
		t.Fatal("inv1 arc not found")
	}
	want := aArr[0].Dist.Add(cellArc.Delay[liberty.Rise])
	if math.Abs(yArr[0].Dist.Mean-want.Mean) > 1e-9 || math.Abs(yArr[0].Dist.Std-want.Std) > 1e-9 {
		t.Errorf("inv1/Y rise arrival %+v, want %+v", yArr[0].Dist, want)
	}
	if yArr[0].SP != aArr[0].SP {
		t.Error("startpoint lost through inverter")
	}
}

func TestArrivalStartpointTracking(t *testing.T) {
	m, e := newMiniEngine(t)
	// ff2/D is reachable only from ff1's clock pin.
	dPin := m.d.CellPin(m.ff2, "D")
	arr := e.Arrivals(liberty.Rise, dPin)
	if len(arr) != 1 {
		t.Fatalf("ff2/D arrivals = %d, want 1", len(arr))
	}
	cp := m.d.CellPin(m.ff1, "CP")
	if e.SPs[arr[0].SP] != cp {
		t.Errorf("ff2/D startpoint = %v, want ff1/CP", e.SPs[arr[0].SP])
	}
	// ff1/D is reachable only from port a.
	dPin1 := m.d.CellPin(m.ff1, "D")
	arr1 := e.Arrivals(liberty.Rise, dPin1)
	aPort, _ := m.d.PinByName("a")
	if len(arr1) != 1 || e.SPs[arr1[0].SP] != aPort {
		t.Errorf("ff1/D startpoints wrong: %+v", arr1)
	}
}

func TestFalsePathUntimesEndpoint(t *testing.T) {
	m := buildMini(t)
	cp := m.d.CellPin(m.ff1, "CP")
	d3 := m.d.CellPin(m.ff3, "D")
	m.con.Exceptions = []sdc.Exception{{Kind: sdc.FalsePath, From: []netlist.PinID{cp}, To: []netlist.PinID{d3}}}
	e, err := New(m.d, m.lib, m.con, m.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := e.EndpointSlacks()[epOf(t, e, "ff3/D")]
	if !math.IsInf(s, 1) {
		t.Errorf("false-pathed endpoint slack = %v, want +Inf", s)
	}
	// Sibling endpoint unaffected.
	if math.IsInf(e.EndpointSlacks()[epOf(t, e, "ff2/D")], 0) {
		t.Error("ff2/D should still be timed")
	}
}

func TestMulticycleAddsPeriods(t *testing.T) {
	m := buildMini(t)
	base, err := New(m.d, m.lib, m.con, m.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sBase := base.EndpointSlacks()[epOf(t, base, "ff3/D")]

	m2 := buildMini(t)
	cp := m2.d.CellPin(m2.ff1, "CP")
	d3 := m2.d.CellPin(m2.ff3, "D")
	m2.con.Exceptions = []sdc.Exception{{Kind: sdc.Multicycle, From: []netlist.PinID{cp}, To: []netlist.PinID{d3}, Cycles: 2}}
	e, err := New(m2.d, m2.lib, m2.con, m2.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := e.EndpointSlacks()[epOf(t, e, "ff3/D")]
	if math.Abs(s-(sBase+110)) > 1e-9 {
		t.Errorf("multicycle slack = %v, want base %v + one period 110", s, sBase)
	}
}

func TestIncrementalMatchesFullAfterResize(t *testing.T) {
	m, e := newMiniEngine(t)
	e.EnableHoldAnalysis()
	newLib, ok := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 2) // X1 -> X4
	if !ok {
		t.Fatal("resize target not found")
	}
	if _, err := e.ResizeCell(m.inv1, newLib); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	incr := e.EndpointSlacks()
	if e.LastFullUpdate {
		t.Error("incremental update flagged as full")
	}

	// A fresh engine on the edited design is the reference: the incremental
	// update must have left every list — arena-carved ones it kept, exact-size
	// ones it replaced — entry for entry what a full update builds.
	fresh, err := New(m.d, m.lib, m.con, m.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh.EnableHoldAnalysis()
	for rf := 0; rf < 2; rf++ {
		for p := range e.arr[rf] {
			if !spArrEqual(e.arr[rf][p], fresh.arr[rf][p]) {
				t.Errorf("late list (%d, %s): incremental %v != fresh %v", rf, m.d.Pins[p].Name, e.arr[rf][p], fresh.arr[rf][p])
			}
			if !spArrEqual(e.arrMin[rf][p], fresh.arrMin[rf][p]) {
				t.Errorf("early list (%d, %s): incremental %v != fresh %v", rf, m.d.Pins[p].Name, e.arrMin[rf][p], fresh.arrMin[rf][p])
			}
		}
	}
	for i, s := range fresh.HoldSlacks() {
		if s != e.epHoldSlack[i] {
			t.Errorf("ep %d hold: incremental %v != fresh %v", i, e.epHoldSlack[i], s)
		}
	}

	e.UpdateTimingFull()
	full := e.EndpointSlacks()
	for i := range full {
		if full[i] != incr[i] || full[i] != fresh.epSlack[i] {
			t.Errorf("ep %d: incremental %v, full %v, fresh %v", i, incr[i], full[i], fresh.epSlack[i])
		}
	}
}

// TestStoredListsAreFull: a stored list's capacity is its length whether an
// arena committed it (full update) or an incremental update allocated it, so
// no append can ever reach into a neighbouring list's entries.
func TestStoredListsAreFull(t *testing.T) {
	m, e := newMiniEngine(t)
	e.EnableHoldAnalysis()
	check := func(when string) {
		t.Helper()
		for rf := 0; rf < 2; rf++ {
			for p := range e.arr[rf] {
				for _, list := range [][]spArr{e.arr[rf][p], e.arrMin[rf][p]} {
					if cap(list) != len(list) {
						t.Errorf("%s: list at (%d, %s) has len %d, cap %d", when, rf, m.d.Pins[p].Name, len(list), cap(list))
					}
				}
			}
		}
	}
	check("after full update")
	newLib, _ := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 2)
	if _, err := e.ResizeCell(m.inv1, newLib); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	check("after incremental update")
}

// TestArena: reservations are handed out again until committed, committed
// lists are disjoint and exactly as long as asked, and chunks grow from
// arenaFirstChunk without a request ever being refused.
func TestArena(t *testing.T) {
	var a arena
	r := a.reserve(8)
	if again := a.reserve(8); &again[0] != &r[0] {
		t.Error("an uncommitted reservation was not reused")
	}
	first := a.commit(3)
	if len(first) != 3 || cap(first) != 3 {
		t.Errorf("commit(3): len %d cap %d", len(first), cap(first))
	}
	second := a.reserve(arenaFirstChunk - 3)
	if &second[0] != &r[3] {
		t.Error("second list does not start where the first ends")
	}
	a.commit(len(second))
	if big := a.reserve(5 * arenaFirstChunk); len(big) != 5*arenaFirstChunk {
		t.Errorf("reserve past the chunk size: len %d", len(big))
	}
	if a.next > arenaMaxChunk {
		t.Errorf("next chunk %d entries, cap %d", a.next, arenaMaxChunk)
	}
}

// TestMergeIntoTieBreaks: on a shared startpoint the shifted source replaces
// the destination entry only when strictly worse in the direction of the
// analysis; equal corners keep the earlier contribution.
func TestMergeIntoTieBreaks(t *testing.T) {
	dst := []spArr{{0, num.Dist{Mean: 10}}, {2, num.Dist{Mean: 20}}, {3, num.Dist{Mean: 30, Std: 1}}}
	src := []spArr{{1, num.Dist{Mean: 1}}, {2, num.Dist{Mean: 15}}, {3, num.Dist{Mean: 28, Std: 1}}, {5, num.Dist{Mean: 2}}}
	delay := num.Dist{Mean: 5}
	out := make([]spArr, len(dst)+len(src))

	late := out[:mergeInto(out, dst, src, delay, 3, false)]
	wantLate := []spArr{dst[0], {1, num.Dist{Mean: 6}}, dst[1], {3, num.Dist{Mean: 33, Std: 1}}, {5, num.Dist{Mean: 7}}}
	if !spArrEqual(late, wantLate) {
		t.Errorf("late merge %v, want %v", late, wantLate)
	}
	early := out[:mergeInto(out, dst, src, delay, 3, true)]
	wantEarly := []spArr{dst[0], {1, num.Dist{Mean: 6}}, dst[1], dst[2], {5, num.Dist{Mean: 7}}}
	if !spArrEqual(early, wantEarly) {
		t.Errorf("early merge %v, want %v", early, wantEarly)
	}
	if n := mergeInto(out, nil, src, delay, 3, false); n != len(src) || out[0] != (spArr{1, num.Dist{Mean: 6}}) {
		t.Errorf("empty destination: %v", out[:n])
	}
}

func TestIncrementalNoopWhenClean(t *testing.T) {
	_, e := newMiniEngine(t)
	before := e.EndpointSlacks()
	e.UpdateTimingIncremental() // nothing dirty
	after := e.EndpointSlacks()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("no-op incremental changed slacks")
		}
	}
}

func TestResizeActuallyChangesTiming(t *testing.T) {
	m, e := newMiniEngine(t)
	before := e.EndpointSlacks()[epOf(t, e, "ff2/D")]
	newLib, _ := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 2)
	_, err := e.ResizeCell(m.inv1, newLib)
	if err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	after := e.EndpointSlacks()[epOf(t, e, "ff2/D")]
	if before == after {
		t.Error("resize had no timing effect")
	}
}

func TestResizeRollback(t *testing.T) {
	m, e := newMiniEngine(t)
	orig := e.EndpointSlacks()
	newLib, _ := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 1)
	old, err := e.ResizeCell(m.inv1, newLib)
	if err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	if _, err := e.ResizeCell(m.inv1, old); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	back := e.EndpointSlacks()
	for i := range orig {
		if math.Abs(orig[i]-back[i]) > 1e-9 {
			t.Errorf("ep %d: slack not restored after rollback: %v vs %v", i, orig[i], back[i])
		}
	}
}

func TestResizeAcrossFootprintsRejected(t *testing.T) {
	m, e := newMiniEngine(t)
	nandID, _ := m.lib.CellByName("NAND2_X1")
	if _, err := e.ResizeCell(m.inv1, nandID); err == nil {
		t.Error("cross-footprint resize accepted")
	}
	if _, err := e.EstimateECO(m.inv1, nandID); err == nil {
		t.Error("cross-footprint estimate accepted")
	}
}

func TestEstimateECOApproximatesCommit(t *testing.T) {
	m, e := newMiniEngine(t)
	newLib, _ := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 2)
	deltas, err := e.EstimateECO(m.inv1, newLib)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("no deltas returned")
	}
	if _, err := e.ResizeCell(m.inv1, newLib); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingFull()
	for _, dl := range deltas {
		got := e.Arcs[dl.ArcID].Delay
		for rf := 0; rf < 2; rf++ {
			// The frozen-slew estimate deviates from the committed
			// recomputation exactly because neighbour slews shift — the
			// paper's Fig. 8 error source — but it must stay in the right
			// ballpark to drive optimization.
			if rel := math.Abs(got[rf].Mean-dl.Delay[rf].Mean) / math.Max(got[rf].Mean, 1); rel > 0.25 {
				t.Errorf("arc %d rf %d: estimate %v vs commit %v", dl.ArcID, rf, dl.Delay[rf].Mean, got[rf].Mean)
			}
		}
	}
}

func TestEstimateECOAffectedSet(t *testing.T) {
	m, e := newMiniEngine(t)
	newLib, _ := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 1)
	deltas, err := e.EstimateECO(m.inv1, newLib)
	if err != nil {
		t.Fatal(err)
	}
	// Expected affected arcs: inv1's cell arc, the net arc into inv1/A, and
	// ff1's CP->Q arc (driver load change). Not inv2's arc.
	kinds := map[string]bool{}
	for _, dl := range deltas {
		a := e.Arcs[dl.ArcID]
		switch {
		case a.Kind == CellArc && a.Cell == m.inv1:
			kinds["own"] = true
		case a.Kind == NetArc && a.To == m.d.CellPin(m.inv1, "A"):
			kinds["faninNet"] = true
		case a.Kind == CellArc && a.Cell == m.ff1:
			kinds["driver"] = true
		case a.Kind == CellArc && a.Cell == m.inv2:
			t.Error("inv2 arc must not be in the affected set")
		}
	}
	for _, k := range []string{"own", "faninNet", "driver"} {
		if !kinds[k] {
			t.Errorf("affected set missing %s arc", k)
		}
	}
}

func TestWorstPathTracesToStartpoint(t *testing.T) {
	_, e := newMiniEngine(t)
	// Find the worst endpoint and trace it.
	slacks := e.EndpointSlacks()
	worst := 0
	for i, s := range slacks {
		if s < slacks[worst] {
			worst = i
		}
	}
	steps := e.WorstPath(int32(worst))
	if len(steps) == 0 {
		t.Fatal("empty path")
	}
	// First step's pin is the endpoint itself.
	if steps[0].Pin != e.EPs[worst] {
		t.Errorf("path head pin %v, want endpoint %v", steps[0].Pin, e.EPs[worst])
	}
	// Path must be connected and end at a startpoint.
	for i := 0; i < len(steps)-1; i++ {
		if e.Arcs[steps[i].ArcID].From != steps[i+1].Pin {
			t.Fatalf("path disconnected at step %d", i)
		}
	}
	last := e.Arcs[steps[len(steps)-1].ArcID].From
	if e.spOfPin[last] < 0 {
		t.Errorf("path does not end at a startpoint (ends at %s)", e.D.Pins[last].Name)
	}
}

func TestDeterminism(t *testing.T) {
	_, e1 := newMiniEngine(t)
	_, e2 := newMiniEngine(t)
	s1, s2 := e1.EndpointSlacks(), e2.EndpointSlacks()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("non-deterministic slack at ep %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestPOEndpointUsesOutputDelay(t *testing.T) {
	m := buildMini(t)
	e1, err := New(m.d, m.lib, m.con, m.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1 := e1.EndpointSlacks()[epOf(t, e1, "z")]

	m2 := buildMini(t)
	zPin, _ := m2.d.PinByName("z")
	m2.con.OutputDelay[zPin] = 30 // was 10: 20ps tighter
	e2, err := New(m2.d, m2.lib, m2.con, m2.par, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2 := e2.EndpointSlacks()[epOf(t, e2, "z")]
	if math.Abs((s1-s2)-20) > 1e-9 {
		t.Errorf("output delay tightening: slack moved %v, want 20", s1-s2)
	}
}

func TestHoldAnalysisMini(t *testing.T) {
	m, e := newMiniEngine(t)
	if e.HoldEnabled() {
		t.Fatal("hold enabled before request")
	}
	e.EnableHoldAnalysis()
	hs := e.HoldSlacks()
	// FF data endpoints carry finite hold slacks; primary outputs are
	// unchecked.
	for i, ep := range e.Endpoints() {
		isPO := e.D.Pins[ep].Cell == netlist.NoCell
		if isPO && !math.IsInf(hs[i], 1) {
			t.Errorf("PO endpoint %d has hold slack %v", i, hs[i])
		}
		if !isPO && math.IsInf(hs[i], 0) {
			t.Errorf("FF endpoint %d has no hold slack", i)
		}
	}
	// Hold incremental must match full after a resize.
	newLib, _ := m.lib.Resize(m.d.Cells[m.inv1].LibCell, 2)
	if _, err := e.ResizeCell(m.inv1, newLib); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	incr := e.HoldSlacks()
	e.UpdateTimingFull()
	full := e.HoldSlacks()
	for i := range full {
		if math.IsInf(full[i], 1) && math.IsInf(incr[i], 1) {
			continue
		}
		if math.Abs(full[i]-incr[i]) > 1e-9 {
			t.Errorf("hold ep %d: incremental %v != full %v", i, incr[i], full[i])
		}
	}
}

func TestHoldEarlyNotAboveLate(t *testing.T) {
	m, e := newMiniEngine(t)
	e.EnableHoldAnalysis()
	d := m.d.CellPin(m.ff2, "D")
	for rf := 0; rf < 2; rf++ {
		late := e.Arrivals(rf, d)
		early := e.EarlyArrivals(rf, d)
		if len(late) != len(early) {
			t.Fatalf("rf %d: SP sets differ between early and late", rf)
		}
		for i := range late {
			if early[i].Dist.EarlyCorner(3) > late[i].Dist.Corner(3)+1e-9 {
				t.Fatalf("rf %d sp %d: early corner above late corner", rf, i)
			}
		}
	}
}

func TestReportTiming(t *testing.T) {
	_, e := newMiniEngine(t)
	var buf strings.Builder
	e.ReportTiming(&buf, 2)
	text := buf.String()
	for _, want := range []string{"report_timing", "Path 1", "Endpoint:", "Startpoint:", "(cell)", "(net)"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	// Worst endpoints ordered by slack.
	worst := e.WorstEndpoints(3)
	slacks := e.EndpointSlacks()
	for i := 1; i < len(worst); i++ {
		if slacks[worst[i-1]] > slacks[worst[i]] {
			t.Fatal("WorstEndpoints not ordered")
		}
	}
}

func TestSlackHistogram(t *testing.T) {
	_, e := newMiniEngine(t)
	var buf strings.Builder
	e.SlackHistogram(&buf, 8)
	text := buf.String()
	if !strings.Contains(text, "slack histogram (5 endpoints") {
		t.Errorf("unexpected header:\n%s", text)
	}
	if !strings.Contains(text, "#") {
		t.Error("histogram has no bars")
	}
	// Degenerate inputs must not panic.
	e.SlackHistogram(&buf, 0)
}
