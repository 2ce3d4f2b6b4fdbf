package core

// The compiled-state layer: everything NewEngine computes from the
// extraction tables before the first kernel launch — fan-in CSR,
// levelization, SP/EP lookup tables, clock depths, fan-out CSR — captured as
// one flat, exported structure. State is the unit internal/snap serializes:
// an engine (single-corner or scenario-batched) reconstructed from a State
// skips parsing, reference signoff, extraction and levelization entirely and
// is ready to propagate after allocating its working tensors.
//
// Construction is split so both paths share one code body:
//
//	NewEngine(t, opt)          = Compile(t) + NewEngineFromState(st, opt)
//	warm start (internal/snap) = Cache.Load + NewEngineFromState(st, opt)
//
// which is what makes the warm/cold differential guarantee cheap to uphold:
// the slices a warm engine propagates over are bit-identical to the ones a
// cold engine just built, so every downstream result is too.

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"insta/internal/circuitops"
	"insta/internal/levelize"
	"insta/internal/liberty"
	"insta/internal/obs"
	"insta/internal/sched"
	"insta/internal/sdc"
)

// State is the fully compiled timing state of one design: the immutable
// skeleton an Engine propagates over, with no working tensors and no
// scheduler attached. All slices are structure-of-arrays slabs so a snapshot
// can decode each with a single copy.
//
// Engines built from one State share its slices (they are read-only after
// Compile) except the arc annotations, which each engine copies so
// SetArcDelay stays private to the engine. A State obtained from
// Engine.ExportState shares the engine's memory and must be serialized (or
// dropped) before the engine is mutated further.
type State struct {
	Design  string
	NumPins int
	Period  float64
	NSigma  float64

	// Fan-in CSR over pins: slots FaninStart[p]..FaninStart[p+1] hold the
	// incoming arcs of pin p (the paper's outPin_parent_start array, Fig. 3).
	FaninStart []int32
	FaninArc   []int32
	FaninFrom  []int32
	FaninSense []uint8

	// Arc annotations indexed by extraction arc id, per output transition.
	ArcMean [2][]float64
	ArcStd  [2][]float64
	ArcKind []uint8 // 0 = cell arc, 1 = net arc: the row of the per-kind lane factors
	ArcCell []int32 // owning cell for cell arcs, -1 otherwise
	ArcNet  []int32 // net id for net arcs, -1 otherwise
	ArcFrom []int32
	ArcTo   []int32

	// Level schedule (levelize.Result, flattened).
	NumLevels    int
	LvLevel      []int32
	LvOrder      []int32
	LvLevelStart []int32

	// Startpoints / endpoints. EpHold carries the hold requirements
	// unconditionally (unlike a setup-only Engine), so one snapshot serves
	// both setup-only and hold-enabled consumers.
	SpPin   []int32
	SpNode  []int32
	SpMean  []float64
	SpStd   []float64
	SpOfPin []int32 // per pin: SP index or -1
	EpPin   []int32
	EpNode  []int32
	EpBase  [2][]float64 // base required time per data transition
	EpHold  [2][]float64 // hold requirement (+Inf = unchecked)
	EpOfPin []int32      // per pin: endpoint index or -1

	// Clock network (CPPR credit, Credit): one tree rooted at node 0.
	ClkParent []int32
	ClkCumVar []float64
	ClkDepth  []int32

	// Timing exceptions as raw rows (column-wise); the O(1) lookup table is
	// recompiled at engine construction — it is tiny relative to the graph.
	ExcSP     []int32
	ExcEP     []int32
	ExcKind   []uint8
	ExcCycles []int32

	// Fan-out CSR: slot i reaches pin FoAdj[i] through arc FoArc[i]. The
	// backward gather relies on this slot order being fixed for its
	// deterministic float summation.
	FoStart []int32
	FoAdj   []int32
	FoArc   []int32
}

// Compile builds the propagation-ready compiled state from extraction
// tables: the one-time initialization of Fig. 1/Fig. 2 minus the engine's
// working tensors. This is the expensive half of NewEngine; a snapshot of
// the result warm-starts any engine configuration.
func Compile(t *circuitops.Tables) (*State, error) { return CompileTraced(t, nil) }

// levelPins returns level l's pins in schedule order.
func (st *State) levelPins(l int) []int32 { return st.LvOrder[st.LvLevelStart[l]:st.LvLevelStart[l+1]] }

// Credit is the CPPR common-path credit of a path launched from clock node
// launch and captured at clock node capture: 2·nσ·sqrt of the variance their
// clock paths share, the root→LCA(launch, capture) segment's. The walk climbs
// the deeper node to the other's depth, then both until they meet, which they
// do on the one clock tree Validate admits.
func (st *State) Credit(launch, capture int32) float64 {
	depth, parent := st.ClkDepth, st.ClkParent
	for depth[launch] > depth[capture] {
		launch = parent[launch]
	}
	for depth[capture] > depth[launch] {
		capture = parent[capture]
	}
	for launch != capture {
		launch, capture = parent[launch], parent[capture]
	}
	return 2 * st.NSigma * math.Sqrt(st.ClkCumVar[launch])
}

// CompileTraced is Compile recording its levelize phase as a child of
// parent (used by NewEngineScenarios, which owns the enclosing build span).
func CompileTraced(t *circuitops.Tables, parent *obs.Span) (*State, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	st := &State{
		Design:  t.Design,
		NumPins: t.NumPins,
		Period:  t.Period,
		NSigma:  t.NSigma,
	}

	// Arc annotations and fan-in CSR.
	nArcs := len(t.Arcs)
	for rf := 0; rf < 2; rf++ {
		st.ArcMean[rf] = make([]float64, nArcs)
		st.ArcStd[rf] = make([]float64, nArcs)
	}
	st.ArcKind = make([]uint8, nArcs)
	st.ArcCell = make([]int32, nArcs)
	st.ArcNet = make([]int32, nArcs)
	st.ArcFrom = make([]int32, nArcs)
	st.ArcTo = make([]int32, nArcs)
	counts := make([]int32, t.NumPins+1)
	for i := range t.Arcs {
		a := &t.Arcs[i]
		st.ArcMean[liberty.Rise][i] = a.MeanRise
		st.ArcStd[liberty.Rise][i] = a.StdRise
		st.ArcMean[liberty.Fall][i] = a.MeanFall
		st.ArcStd[liberty.Fall][i] = a.StdFall
		st.ArcKind[i] = a.Kind
		st.ArcCell[i] = a.Cell
		st.ArcNet[i] = a.Net
		st.ArcFrom[i] = a.From
		st.ArcTo[i] = a.To
		counts[a.To+1]++
	}
	st.FaninStart = make([]int32, t.NumPins+1)
	for i := 0; i < t.NumPins; i++ {
		st.FaninStart[i+1] = st.FaninStart[i] + counts[i+1]
	}
	st.FaninArc = make([]int32, nArcs)
	st.FaninFrom = make([]int32, nArcs)
	st.FaninSense = make([]uint8, nArcs)
	cursor := make([]int32, t.NumPins)
	for i := range t.Arcs {
		a := &t.Arcs[i]
		pos := st.FaninStart[a.To] + cursor[a.To]
		cursor[a.To]++
		st.FaninArc[pos] = int32(i)
		st.FaninFrom[pos] = a.From
		st.FaninSense[pos] = a.Sense
	}

	// Fan-out CSR (incremental re-levelization and propagation, backward
	// gather, overlay reads).
	st.FoStart = make([]int32, t.NumPins+1)
	st.FoAdj = make([]int32, nArcs)
	st.FoArc = make([]int32, nArcs)
	fanoutCSR(st.ArcFrom, st.ArcTo, st.FoStart, st.FoAdj, st.FoArc)

	// Levelize — INSTA's own topological sort (paper §III-A).
	lsp := parent.Child("levelize")
	lvArcs := make([]levelize.Arc, nArcs)
	for i := range t.Arcs {
		lvArcs[i] = levelize.Arc{From: t.Arcs[i].From, To: t.Arcs[i].To}
	}
	lv, err := levelize.Levelize(t.NumPins, lvArcs)
	if err != nil {
		return nil, err
	}
	st.NumLevels = lv.NumLevels
	st.LvLevel, st.LvOrder, st.LvLevelStart = lv.Level, lv.Order, lv.LevelStart
	lsp.End()

	// Startpoints / endpoints.
	st.SpOfPin = make([]int32, t.NumPins)
	for i := range st.SpOfPin {
		st.SpOfPin[i] = -1
	}
	for i, s := range t.SPs {
		st.SpPin = append(st.SpPin, s.Pin)
		st.SpNode = append(st.SpNode, s.ClockNode)
		st.SpMean = append(st.SpMean, s.Mean)
		st.SpStd = append(st.SpStd, s.Std)
		st.SpOfPin[s.Pin] = int32(i)
	}
	st.EpBase[0] = make([]float64, len(t.EPs))
	st.EpBase[1] = make([]float64, len(t.EPs))
	st.EpHold[0] = make([]float64, len(t.EPs))
	st.EpHold[1] = make([]float64, len(t.EPs))
	st.EpOfPin = make([]int32, t.NumPins)
	for i := range st.EpOfPin {
		st.EpOfPin[i] = -1
	}
	for i, ep := range t.EPs {
		st.EpPin = append(st.EpPin, ep.Pin)
		st.EpNode = append(st.EpNode, ep.CaptureNode)
		st.EpBase[0][i] = ep.BaseReqRise
		st.EpBase[1][i] = ep.BaseReqFall
		st.EpHold[0][i] = ep.HoldReqRise
		st.EpHold[1][i] = ep.HoldReqFall
		st.EpOfPin[ep.Pin] = int32(i)
	}

	// Clock network.
	nClk := len(t.ClockNodes)
	st.ClkParent = make([]int32, nClk)
	st.ClkCumVar = make([]float64, nClk)
	st.ClkDepth = make([]int32, nClk)
	for i, c := range t.ClockNodes {
		st.ClkParent[i] = c.Parent
		st.ClkCumVar[i] = c.CumVar
		if c.Parent >= 0 {
			st.ClkDepth[i] = st.ClkDepth[c.Parent] + 1
		}
	}

	// Exception rows, column-wise.
	nExc := len(t.Exceptions)
	st.ExcSP = make([]int32, nExc)
	st.ExcEP = make([]int32, nExc)
	st.ExcKind = make([]uint8, nExc)
	st.ExcCycles = make([]int32, nExc)
	for i, x := range t.Exceptions {
		st.ExcSP[i] = x.SPPin
		st.ExcEP[i] = x.EPPin
		st.ExcKind[i] = x.Kind
		st.ExcCycles[i] = x.Cycles
	}

	return st, nil
}

// fanoutCSR fills the fan-out CSR of the arcs from[i]→to[i] over
// len(start)-1 pins with a counting sort, so each pin's slots list its arcs
// in ascending id order. start is overwritten; adj and arc take len(from)
// slots. Compile builds with it, and a patch (Patch) rebuilds with
// it when a bypass changed an existing pin's fan-out count.
func fanoutCSR(from, to, start, adj, arc []int32) {
	clear(start)
	for _, f := range from {
		start[f+1]++
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	cursor := make([]int32, len(start)-1)
	for i, f := range from {
		pos := start[f] + cursor[f]
		cursor[f]++
		adj[pos] = to[i]
		arc[pos] = int32(i)
	}
}

// Arc returns arc id's extraction row as the state holds it now: the row
// circuitops.Extract wrote, or the last structural edit of it.
func (st *State) Arc(id int32) circuitops.ArcRow {
	return circuitops.ArcRow{
		From: st.ArcFrom[id], To: st.ArcTo[id],
		Kind: st.ArcKind[id], Sense: st.FaninSense[faninPos(st, id)],
		Cell: st.ArcCell[id], Net: st.ArcNet[id],
		MeanRise: st.ArcMean[liberty.Rise][id], StdRise: st.ArcStd[liberty.Rise][id],
		MeanFall: st.ArcMean[liberty.Fall][id], StdFall: st.ArcStd[liberty.Fall][id],
	}
}

// Tables reconstructs extraction tables equivalent to the ones the state was
// compiled from (arc order and all attributes preserved). It builds a new
// table set; tools that need one for a table-level consumer (re-export, a
// flattened chip, a block recovery) call it on purpose.
func (st *State) Tables() *circuitops.Tables {
	t := &circuitops.Tables{
		Design:  st.Design,
		NumPins: st.NumPins,
		Period:  st.Period,
		NSigma:  st.NSigma,
	}
	t.Arcs = make([]circuitops.ArcRow, len(st.ArcFrom))
	for i := range t.Arcs {
		t.Arcs[i] = st.Arc(int32(i))
	}
	t.SPs = make([]circuitops.SPRow, len(st.SpPin))
	for i := range t.SPs {
		t.SPs[i] = circuitops.SPRow{
			Pin: st.SpPin[i], ClockNode: st.SpNode[i],
			Mean: st.SpMean[i], Std: st.SpStd[i],
		}
	}
	t.EPs = make([]circuitops.EPRow, len(st.EpPin))
	for i := range t.EPs {
		t.EPs[i] = circuitops.EPRow{
			Pin: st.EpPin[i], CaptureNode: st.EpNode[i],
			BaseReqRise: st.EpBase[0][i], BaseReqFall: st.EpBase[1][i],
			HoldReqRise: st.EpHold[0][i], HoldReqFall: st.EpHold[1][i],
		}
	}
	t.ClockNodes = make([]circuitops.ClockNodeRow, len(st.ClkParent))
	for i := range t.ClockNodes {
		t.ClockNodes[i] = circuitops.ClockNodeRow{Parent: st.ClkParent[i], CumVar: st.ClkCumVar[i]}
	}
	t.Exceptions = make([]circuitops.ExceptionRow, len(st.ExcSP))
	for i := range t.Exceptions {
		t.Exceptions[i] = circuitops.ExceptionRow{
			SPPin: st.ExcSP[i], EPPin: st.ExcEP[i],
			Kind: st.ExcKind[i], Cycles: st.ExcCycles[i],
		}
	}
	return t
}

// faninPos locates arc's slot in the fan-in CSR (slots of a pin hold its
// incoming arcs in extraction order, so a linear probe over the — typically
// tiny — fan-in list suffices).
func faninPos(st *State, arc int32) int32 {
	to := st.ArcTo[arc]
	for pos := st.FaninStart[to]; pos < st.FaninStart[to+1]; pos++ {
		if st.FaninArc[pos] == arc {
			return pos
		}
	}
	return 0 // unreachable on a Validate()-clean state
}

// CompileExceptions rebuilds the O(1) exception lookup from the state's
// rows, reusing the sdc compiler (engine construction and hier extraction).
func (st *State) CompileExceptions() (*sdc.ExceptionTable, error) {
	return st.exceptionTables().CompileExceptions()
}

// exceptionTables wraps the state's exception rows in just enough of a
// Tables value to reuse the sdc compiler — the warm path never materializes
// the full arc rows.
func (st *State) exceptionTables() *circuitops.Tables {
	t := &circuitops.Tables{Period: st.Period}
	t.Exceptions = make([]circuitops.ExceptionRow, len(st.ExcSP))
	for i := range t.Exceptions {
		t.Exceptions[i] = circuitops.ExceptionRow{
			SPPin: st.ExcSP[i], EPPin: st.ExcEP[i],
			Kind: st.ExcKind[i], Cycles: st.ExcCycles[i],
		}
	}
	return t
}

// Validate performs the structural checks that make a decoded State safe to
// hand to NewEngineFromState: every index in range, every CSR monotone and
// consistent with its slab lengths, every arc kind one the kernels have lane
// factors for, and one clock tree for Credit to climb. It is the second line
// of defense behind the snapshot checksum — a corrupted snapshot must produce
// a typed error, never an out-of-range panic inside a kernel.
func (st *State) Validate() error {
	n := st.NumPins
	if n < 0 {
		return fmt.Errorf("core: state: negative pin count %d", n)
	}
	nArcs := len(st.ArcFrom)
	if len(st.ArcTo) != nArcs || len(st.ArcKind) != nArcs || len(st.ArcCell) != nArcs ||
		len(st.ArcNet) != nArcs || len(st.FaninArc) != nArcs || len(st.FaninFrom) != nArcs ||
		len(st.FaninSense) != nArcs || len(st.FoAdj) != nArcs || len(st.FoArc) != nArcs {
		return fmt.Errorf("core: state: inconsistent arc slab lengths")
	}
	for rf := 0; rf < 2; rf++ {
		if len(st.ArcMean[rf]) != nArcs || len(st.ArcStd[rf]) != nArcs {
			return fmt.Errorf("core: state: inconsistent arc annotation lengths")
		}
	}
	for i := 0; i < nArcs; i++ {
		if st.ArcFrom[i] < 0 || int(st.ArcFrom[i]) >= n || st.ArcTo[i] < 0 || int(st.ArcTo[i]) >= n {
			return fmt.Errorf("core: state: arc %d pins out of range", i)
		}
		if st.ArcKind[i] > 1 {
			return fmt.Errorf("core: state: arc %d kind %d is neither cell (0) nor net (1)", i, st.ArcKind[i])
		}
	}
	if err := validateCSR("fanin", st.FaninStart, n, nArcs); err != nil {
		return err
	}
	if err := validateCSR("fanout", st.FoStart, n, nArcs); err != nil {
		return err
	}
	for i := 0; i < nArcs; i++ {
		if st.FaninArc[i] < 0 || int(st.FaninArc[i]) >= nArcs {
			return fmt.Errorf("core: state: fanin slot %d arc out of range", i)
		}
		if st.FaninFrom[i] < 0 || int(st.FaninFrom[i]) >= n {
			return fmt.Errorf("core: state: fanin slot %d pin out of range", i)
		}
		if st.FoAdj[i] < 0 || int(st.FoAdj[i]) >= n {
			return fmt.Errorf("core: state: fanout slot %d pin out of range", i)
		}
		if st.FoArc[i] < 0 || int(st.FoArc[i]) >= nArcs {
			return fmt.Errorf("core: state: fanout slot %d arc out of range", i)
		}
	}

	// Level schedule: Order is a permutation of pins grouped by LevelStart,
	// and Level agrees with the grouping.
	if len(st.LvLevel) != n || len(st.LvOrder) != n {
		return fmt.Errorf("core: state: level slab lengths %d/%d != pins %d", len(st.LvLevel), len(st.LvOrder), n)
	}
	if st.NumLevels < 0 || len(st.LvLevelStart) != st.NumLevels+1 {
		if !(n == 0 && st.NumLevels == 0 && len(st.LvLevelStart) <= 1) {
			return fmt.Errorf("core: state: level starts length %d != levels %d + 1", len(st.LvLevelStart), st.NumLevels)
		}
	}
	if err := validateCSR("levels", st.LvLevelStart, st.NumLevels, n); err != nil {
		return err
	}
	seen := make([]bool, n)
	for l := 0; l < st.NumLevels; l++ {
		for _, p := range st.LvOrder[st.LvLevelStart[l]:st.LvLevelStart[l+1]] {
			if p < 0 || int(p) >= n || seen[p] {
				return fmt.Errorf("core: state: level order is not a permutation at level %d", l)
			}
			seen[p] = true
			if int(st.LvLevel[p]) != l {
				return fmt.Errorf("core: state: pin %d level %d disagrees with schedule level %d", p, st.LvLevel[p], l)
			}
		}
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("core: state: pin %d missing from level order", p)
		}
	}

	// SP/EP tables and the per-pin inverse maps.
	nClk := int32(len(st.ClkParent))
	if len(st.ClkCumVar) != int(nClk) || len(st.ClkDepth) != int(nClk) {
		return fmt.Errorf("core: state: inconsistent clock slab lengths")
	}
	for i, p := range st.ClkParent {
		root := i == 0 && p == -1 && st.ClkDepth[0] == 0
		child := i > 0 && p >= 0 && p < int32(i) && st.ClkDepth[i] == st.ClkDepth[p]+1
		if !root && !child {
			return fmt.Errorf("core: state: clock node %d (parent %d, depth %d) breaks the one clock tree rooted at node 0", i, p, st.ClkDepth[i])
		}
	}
	nSP := len(st.SpPin)
	if len(st.SpNode) != nSP || len(st.SpMean) != nSP || len(st.SpStd) != nSP || len(st.SpOfPin) != n {
		return fmt.Errorf("core: state: inconsistent SP slab lengths")
	}
	for i := 0; i < nSP; i++ {
		if st.SpPin[i] < 0 || int(st.SpPin[i]) >= n || st.SpNode[i] < 0 || st.SpNode[i] >= nClk {
			return fmt.Errorf("core: state: sp %d out of range", i)
		}
	}
	for p, i := range st.SpOfPin {
		if i != -1 && (i < 0 || int(i) >= nSP || st.SpPin[i] != int32(p)) {
			return fmt.Errorf("core: state: spOfPin[%d] = %d is inconsistent", p, i)
		}
	}
	nEP := len(st.EpPin)
	if len(st.EpNode) != nEP || len(st.EpOfPin) != n {
		return fmt.Errorf("core: state: inconsistent EP slab lengths")
	}
	for rf := 0; rf < 2; rf++ {
		if len(st.EpBase[rf]) != nEP || len(st.EpHold[rf]) != nEP {
			return fmt.Errorf("core: state: inconsistent EP requirement lengths")
		}
	}
	for i := 0; i < nEP; i++ {
		if st.EpPin[i] < 0 || int(st.EpPin[i]) >= n || st.EpNode[i] < 0 || st.EpNode[i] >= nClk {
			return fmt.Errorf("core: state: ep %d out of range", i)
		}
	}
	for p, i := range st.EpOfPin {
		if i != -1 && (i < 0 || int(i) >= nEP || st.EpPin[i] != int32(p)) {
			return fmt.Errorf("core: state: epOfPin[%d] = %d is inconsistent", p, i)
		}
	}
	nExc := len(st.ExcSP)
	if len(st.ExcEP) != nExc || len(st.ExcKind) != nExc || len(st.ExcCycles) != nExc {
		return fmt.Errorf("core: state: inconsistent exception slab lengths")
	}
	for i := 0; i < nExc; i++ {
		if st.ExcSP[i] < -1 || int(st.ExcSP[i]) >= n || st.ExcEP[i] < -1 || int(st.ExcEP[i]) >= n {
			return fmt.Errorf("core: state: exception %d pins out of range", i)
		}
	}
	return nil
}

// validateCSR checks a CSR start array: len(start) == rows+1 (or empty with
// zero rows), start[0] == 0, monotone non-decreasing, last == slots.
func validateCSR(name string, start []int32, rows, slots int) error {
	if rows == 0 && len(start) <= 1 {
		if slots != 0 {
			return fmt.Errorf("core: state: %s CSR empty but %d slots", name, slots)
		}
		return nil
	}
	if len(start) != rows+1 {
		return fmt.Errorf("core: state: %s CSR length %d != rows %d + 1", name, len(start), rows)
	}
	if start[0] != 0 || int(start[rows]) != slots {
		return fmt.Errorf("core: state: %s CSR bounds [%d,%d] != [0,%d]", name, start[0], start[rows], slots)
	}
	for i := 0; i < rows; i++ {
		if start[i] > start[i+1] {
			return fmt.Errorf("core: state: %s CSR not monotone at row %d", name, i)
		}
	}
	return nil
}

// NewEngineFromState stands up a ready-to-propagate engine over a compiled
// state — the warm-start constructor. It shares the state's immutable
// skeleton (topology, schedule, SP/EP, clock, fan-out CSR), copies the arc
// annotations so SetArcDelay stays private to this engine, and allocates
// fresh working tensors; no parsing, extraction or levelization happens
// here. The state must be Compile output or a Validate()-clean decode.
//
// Engines built this way are bit-identical in every result to a cold
// NewEngine over the tables the state was compiled from: NewEngine itself is
// Compile + this constructor.
func NewEngineFromState(st *State, opt Options) (*Engine, error) {
	return NewEngineLanes(st, unitLane, opt)
}

// NewEngineLanes is NewEngineFromState for an engine that propagates
// len(scns) scenarios in one traversal, one lane each (see Scenario). Lane s
// of the result is bit-identical to a single-lane engine over
// ScaleTables(tables, scns[s]).
func NewEngineLanes(st *State, scns []Scenario, opt Options) (*Engine, error) {
	e, err := newEngine(st, scns, opt)
	if err != nil {
		return nil, err
	}
	sp := e.opt.Tracer.StartArg("engine-restore", "pins", int64(st.NumPins))
	sp.End()
	return e, nil
}

// newEngine builds an engine over st — its own shallow copy of st with the
// annotation slabs cloned, the exception table, the scheduler pool — with
// freshly allocated, unpropagated Top-K tensors whose rows follow st's level
// order, each as long as its pin's capacity (rowCap), none for a dead pin
// (livePin) or a derived one (derivedPin): one pass over the fan-out CSR in
// reverse level order, so every child's liveness is known before its
// parents', then one over the fan-in CSR in level order, so every parent's
// capacity is known before its children's.
func newEngine(st *State, scns []Scenario, opt Options) (*Engine, error) {
	if err := checkTopK(opt.TopK); err != nil {
		return nil, err
	}
	if len(scns) == 0 {
		return nil, fmt.Errorf("core: no scenarios given")
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	if opt.Tau <= 0 {
		opt.Tau = 0.01
	}
	S := len(scns)
	e := &Engine{
		opt:     opt,
		scns:    append([]Scenario(nil), scns...),
		qstride: S * opt.TopK,
	}
	e.top = view{e: e, q: new(queues)}
	for kind := range e.scaleMean {
		e.scaleMean[kind] = make([]float64, S)
		e.scaleStd[kind] = make([]float64, S)
	}
	for s, l := range scns {
		if !validScale(l.DelayScale) || !validScale(l.SigmaScale) || !validScale(l.RCScale) {
			return nil, fmt.Errorf("core: scenario %d (%q) has a non-finite or non-positive scale", s, l.Name)
		}
		for kind := range e.scaleMean {
			e.scaleMean[kind][s], e.scaleStd[kind][s] = l.Scale(uint8(kind))
		}
	}
	// The engine reads its own shallow copy of the state whose annotation
	// slabs are cloned: SetArcDelay must not leak across engines sharing one
	// compiled state, and st's nominal slabs are not kept alive by the engine.
	own := *st
	for rf := 0; rf < 2; rf++ {
		own.ArcMean[rf] = append([]float64(nil), st.ArcMean[rf]...)
		own.ArcStd[rf] = append([]float64(nil), st.ArcStd[rf]...)
	}
	e.st = &own
	var err error
	if e.exc, err = st.CompileExceptions(); err != nil {
		return nil, err
	}
	nEP := S * len(st.EpPin)
	e.epSlack = make([]float64, nEP)
	e.epSP = make([]int32, nEP)
	e.epRF = make([]int8, nEP)
	if opt.Hold {
		e.hold = &holdState{view: view{e: e, q: new(queues)}, epSlack: make([]float64, nEP)}
	}
	e.pool = sched.New(opt.Workers, opt.Grain)
	e.bindKernels()
	e.rows = make([]rowSpan, st.NumPins)
	for i := len(st.LvOrder) - 1; i >= 0; i-- {
		p := st.LvOrder[i]
		e.rows[p].dead = !livePin(st, e.rows, p)
	}
	units := 0
	for _, p := range st.LvOrder {
		r := &e.rows[p]
		r.off, r.k, r.derived = int32(units), rowCap(st, e.rows, p, opt.TopK), !r.dead && derivedPin(st, p)
		units += int(r.slots())
	}
	if units > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d pins at TopK %d need %d row units, more than a row offset addresses", st.NumPins, opt.TopK, units)
	}
	e.rowUnits, e.capUnits = units, units
	sz := 2 * units * len(scns)
	*e.top.q = newQueues(sz)
	if e.hold != nil {
		*e.hold.q = newQueues(sz)
	}
	return e, nil
}

// checkTopK rejects a queue depth no engine can be built with.
func checkTopK(k int) error {
	if k < 1 {
		return fmt.Errorf("core: TopK must be >= 1, got %d", k)
	}
	if k > maxTopK {
		return fmt.Errorf("core: TopK %d exceeds %d, the deepest queue a startpoint index entry can address", k, maxTopK)
	}
	return nil
}

// seedHeadroom is the tensor headroom a forked engine reserves for in-place
// structural growth, in rows of the widest capacity: 4096 rows of K slots per
// lane, the room 2048 buffer insertions take at most before a reseed has to
// relocate the tensors. The cost is 2*headroom*S*K slots per tensor — a few
// MB at most.
const seedHeadroom = 4096

// Fork returns a private, fully evaluated copy of e, the working engine a
// structural session edits in place (Patch) while e, a base others read, stays
// as it is; Fork only reads e, so overlays may preview over e meanwhile. The
// copy owns what an edit rewrites — the state's arc, SP/EP-map and CSR slabs,
// the row spans, the tensors (seedHeadroom spare rows, so edits grow in place)
// and the endpoint results — and shares the rest of the state, the scenarios
// and the exception table, which keys on SP/EP pins only. It has its own
// scheduler pool, and no lazy cache.
func (e *Engine) Fork() *Engine {
	sp := e.opt.Tracer.StartArg("engine-fork", "pins", int64(e.st.NumPins))
	defer sp.End()
	f := &Engine{
		opt: e.opt, st: e.st.fork(), rows: own(e.rows),
		rowUnits: e.rowUnits, capUnits: e.rowUnits + seedHeadroom*e.opt.TopK, qstride: e.qstride,
		scns: e.scns, scaleMean: e.scaleMean, scaleStd: e.scaleStd, exc: e.exc,
		epSlack: slices.Clone(e.epSlack), epSP: slices.Clone(e.epSP), epRF: slices.Clone(e.epRF),
		pool: sched.New(e.opt.Workers, e.opt.Grain),
	}
	S := len(e.scns)
	q := e.top.q.restride(e.capUnits, f.capUnits, e.rowUnits, S)
	f.top = view{e: f, q: &q}
	if e.hold != nil {
		hq := e.hold.q.restride(e.capUnits, f.capUnits, e.rowUnits, S)
		f.hold = &holdState{view: view{e: f, q: &hq}, epSlack: slices.Clone(e.hold.epSlack)}
	}
	f.bindKernels()
	return f
}

// reseed re-points e at st — the compiled state of an op batch applied to
// e's own: buffers spliced in or bypassed, arcs re-annotated — and leaves e
// fully evaluated over it, warm-started from its converged queues by
// re-propagating only the fan-out cone of the seed pins (every pin whose
// fan-in set or fan-in delay changed, including appended pins, and every pin
// an edited arc no longer leaves from), in every lane at once. The result is
// bit-identical to a cold NewEngineLanes over st + full evaluation: pin ids
// are stable across structural edits (pins are append-only; a bypassed buffer
// keeps its pins as a dead end), so e's converged Top-K planes are valid
// arrival state for every pin outside the seeds' cone, and the
// equality-stopping incremental wavefront recomputes exactly the pins whose
// queues differ. e must have completed a full evaluation, its hold slacks
// included with hold on (Run alone leaves them out): only the endpoints whose
// pins the wave changed are re-evaluated, setup and hold. st keeps e's
// startpoint, endpoint and exception tables, as every patched state does; e
// adopts its slabs and drops every lazily built cache.
//
// Capacities are recomputed over st, and so are the liveness (livePin) of
// every pin upstream of a changed fan-out, by an upward wave, and the derived
// status (derivedPin) of every pin whose fan-in, fan-out or child can have
// changed: the seeds and the pins they hear from. A pin that lost a fan-out
// arc is neither unless it is listed; left out, it keeps its status — its
// results are exact either way, but its layout is not a cold engine's. A pin
// keeps its row while what it now stores fits there (a shrunk row gives up its
// tail, a pin that became derived or dead all of it) and takes a fresh row at
// the tail when it does not; appended pins and pins that came alive take fresh
// rows too, in level order. Buffer insertion and bypass preserve every
// existing pin's capacity, so they re-lay only the pins whose status flips — a
// bypass gives the driver a second fan-out and takes the buffer output's only
// one, and the buffer, reaching no endpoint, dies. A re-laid row is not
// carried over but rebuilt: every live pin whose span changed — moved, grown,
// shrunk or flipped — joins the seeds, its row poisoned so that the wave finds
// it changed and carries on to its fan-out (a pin that became derived has no
// row, and the wave passes through it; a dead pin never joins). The tensors
// are relocated only when the rows outgrow their headroom.
func (e *Engine) reseed(st *State, seeds []int32) {
	sp := e.opt.Tracer.StartArg("engine-reseed", "seeds", int64(len(seeds)))
	defer sp.End()
	oldPins, oldUnits := e.st.NumPins, e.rowUnits
	e.st = st
	e.inc, e.plan, e.grad = nil, nil, nil
	e.pinOwner, e.arcStage, e.stageAcc = nil, nil, nil
	rows := append(e.rows, make([]rowSpan, st.NumPins-oldPins)...)
	// Liveness can change only upstream of a pin whose fan-out changed: the
	// seeds, their parents and the appended pins. It is re-derived by a wave
	// over their level buckets in decreasing level order that climbs to the
	// parents of every pin whose liveness flipped; a pin that came alive is
	// left with the empty span of an appended pin, so that the capacity wave
	// gives it a fresh row. Capacities can only change downstream of the
	// buckets' pins, so they are recomputed by a wave over their fan-out in
	// level order (pin order within a level) that stops where a capacity comes
	// out as it was. The cone wave then runs on the same buckets, rid of their
	// dead pins: they hold every live seed and re-laid pin, and every other pin
	// in them is a seed's parent or the child of a re-laid pin.
	sc := e.incScratch()
	for p := oldPins; p < st.NumPins; p++ {
		sc.push(st.LvLevel, int32(p))
	}
	for _, s := range seeds {
		sc.push(st.LvLevel, s)
		for _, p := range st.FaninFrom[st.FaninStart[s]:st.FaninStart[s+1]] {
			sc.push(st.LvLevel, p)
		}
	}
	for l := len(sc.buckets) - 1; l >= 0; l-- {
		for _, p := range sc.buckets[l] {
			if dead := !livePin(st, rows, p); dead != rows[p].dead {
				if rows[p].dead = dead; !dead {
					rows[p] = rowSpan{}
				}
				for _, from := range st.FaninFrom[st.FaninStart[p]:st.FaninStart[p+1]] {
					sc.push(st.LvLevel, from)
				}
			}
		}
	}
	var relaid []int32
	units := oldUnits
	for l := range sc.buckets {
		bucket := sc.buckets[l]
		slices.Sort(bucket)
		for _, p := range bucket {
			was := rows[p] // empty for an appended or revived pin
			now := rowSpan{off: was.off, k: rowCap(st, rows, p, e.opt.TopK), derived: !was.dead && derivedPin(st, p), dead: was.dead}
			if now == was {
				continue
			}
			if now.slots() > was.slots() {
				now.off = int32(units)
				units += int(now.slots())
			}
			rows[p] = now
			relaid = append(relaid, p)
			if now.k != was.k {
				for _, to := range st.FoAdj[st.FoStart[p]:st.FoStart[p+1]] {
					sc.push(st.LvLevel, to)
				}
			}
		}
		sc.buckets[l] = slices.DeleteFunc(bucket, func(p int32) bool { return rows[p].dead })
	}
	S := len(e.scns)
	if units > e.capUnits {
		// Relocate the rf blocks (the tensors are rf-major, so each moves when
		// the rf stride changes) into tensors with a fresh allowance. Rare: it
		// takes headroom/2 insert batches to run out.
		newCap := units + seedHeadroom*e.opt.TopK
		*e.top.q = e.top.q.restride(e.capUnits, newCap, oldUnits, S)
		if e.hold != nil {
			*e.hold.q = e.hold.q.restride(e.capUnits, newCap, oldUnits, S)
		}
		e.capUnits = newCap
	}
	e.rows, e.rowUnits = rows, units
	// A re-laid row holds nothing a rebuild can be compared with, so it is
	// poisoned: startpoint noSP-1, which no queue holds, makes the compare
	// find it changed.
	for _, p := range relaid {
		n := e.rowSlots(p)
		for rf := 0; rf < 2; rf++ {
			b, _ := e.base(rf, p)
			for i := b; i < b+n; i++ {
				e.top.q.sp[i] = noSP - 1
				if e.hold != nil {
					e.hold.q.sp[i] = noSP - 1
				}
			}
		}
	}
	e.coneWave(kIncremental, sc)
	e.refreshSlacks(len(sc.eps), sc.eps)
	if e.hold != nil {
		e.refreshHoldSlacks(len(sc.holdEps), sc.holdEps)
	}
}

// checkRowUnits refuses a patch of e into numPins pins that could lay out
// more row units than a row offset addresses: the rows e has handed out, plus
// a fresh row of up to TopK units for every pin. Patch checks it before its
// first write, so a refused batch leaves e as it was.
func (e *Engine) checkRowUnits(numPins int) error {
	if e.rowUnits+numPins*e.opt.TopK > math.MaxInt32 {
		return fmt.Errorf("core: %d pins at TopK %d could need more row units than a row offset addresses", numPins, e.opt.TopK)
	}
	return nil
}

// ExportState returns the engine's compiled state with its *current* arc
// annotations — the payload of a snapshot save (e.g. the serving daemon's
// /admin/snapshot after committed ECOs). The returned State shares the
// engine's memory: serialize it before mutating the engine further.
func (e *Engine) ExportState() *State {
	out := *e.st
	return &out
}
