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
//	warm start (internal/snap) =  snap.Open  + NewEngineFromState(st, opt)
//
// which is what makes the warm/cold differential guarantee cheap to uphold:
// the slices a warm engine propagates over are bit-identical to the ones a
// cold engine just built, so every downstream result is too.

import (
	"fmt"
	"runtime"

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

	// Fan-in CSR over pins (see Engine).
	FaninStart []int32
	FaninArc   []int32
	FaninFrom  []int32
	FaninSense []uint8

	// Arc annotations indexed by extraction arc id, per output transition.
	ArcMean [2][]float64
	ArcStd  [2][]float64
	ArcKind []uint8
	ArcCell []int32
	ArcNet  []int32
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
	SpOfPin []int32
	EpPin   []int32
	EpNode  []int32
	EpBase  [2][]float64
	EpHold  [2][]float64
	EpOfPin []int32

	// Clock network (CPPR credit).
	ClkParent []int32
	ClkCumVar []float64
	ClkDepth  []int32

	// Timing exceptions as raw rows (column-wise); the O(1) lookup table is
	// recompiled at engine construction — it is tiny relative to the graph.
	ExcSP     []int32
	ExcEP     []int32
	ExcKind   []uint8
	ExcCycles []int32

	// Fan-out CSR: slot i reaches pin FoAdj[i] through arc FoArc[i].
	FoStart []int32
	FoAdj   []int32
	FoArc   []int32
}

// Compile builds the propagation-ready compiled state from extraction
// tables: the one-time initialization of Fig. 1/Fig. 2 minus the engine's
// working tensors. This is the expensive half of NewEngine; a snapshot of
// the result warm-starts any engine configuration.
func Compile(t *circuitops.Tables) (*State, error) { return CompileTraced(t, nil) }

// levels is the state's level schedule as the levelizer's result type.
func (st *State) levels() *levelize.Result {
	return &levelize.Result{
		Level:      st.LvLevel,
		NumLevels:  st.NumLevels,
		Order:      st.LvOrder,
		LevelStart: st.LvLevelStart,
	}
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
// slots. Compile builds with it, and CompileIncrementalPatched rebuilds with
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

// Tables reconstructs extraction tables equivalent to the ones the state was
// compiled from (arc order and all attributes preserved). Warm-started tools
// use this to run table-level consumers (Monte Carlo validation, re-export)
// without the original sources.
func (st *State) Tables() *circuitops.Tables {
	t := &circuitops.Tables{
		Design:  st.Design,
		NumPins: st.NumPins,
		Period:  st.Period,
		NSigma:  st.NSigma,
	}
	t.Arcs = make([]circuitops.ArcRow, len(st.ArcFrom))
	for i := range t.Arcs {
		t.Arcs[i] = circuitops.ArcRow{
			From: st.ArcFrom[i], To: st.ArcTo[i],
			Kind: st.ArcKind[i], Sense: st.FaninSense[faninPos(st, int32(i))],
			Cell: st.ArcCell[i], Net: st.ArcNet[i],
			MeanRise: st.ArcMean[liberty.Rise][i], StdRise: st.ArcStd[liberty.Rise][i],
			MeanFall: st.ArcMean[liberty.Fall][i], StdFall: st.ArcStd[liberty.Fall][i],
		}
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
// consistent with its slab lengths. It is the second line of defense behind
// the snapshot checksum — a corrupted snapshot must produce a typed error,
// never an out-of-range panic inside a kernel.
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
		if p >= int32(i) || p < -1 {
			return fmt.Errorf("core: state: clock node %d has non-preceding parent %d", i, p)
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
	sp := e.tracer.StartArg("engine-restore", "pins", int64(st.NumPins))
	sp.End()
	return e, nil
}

// newEngine builds an engine over st with freshly allocated, unpropagated
// Top-K tensors whose rows follow st's level order.
func newEngine(st *State, scns []Scenario, opt Options) (*Engine, error) {
	e, err := newEngineBody(st, scns, opt)
	if err != nil {
		return nil, err
	}
	e.capPins = st.NumPins
	e.row = make([]int32, st.NumPins)
	for i, p := range st.LvOrder {
		e.row[p] = int32(i)
	}
	sz := 2 * e.capPins * e.qstride
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

// newEngineBody builds everything but the Top-K tensors and their row map,
// which the caller allocates (newEngine) or takes over from a previous engine
// (Reseed).
func newEngineBody(st *State, scns []Scenario, opt Options) (*Engine, error) {
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
		tracer:  opt.Tracer,
	}
	e.top = view{e: e, q: new(queues)}
	for kind := 0; kind < 2; kind++ {
		e.scaleMean[kind] = make([]float64, S)
		e.scaleStd[kind] = make([]float64, S)
	}
	for s, l := range scns {
		if !validScale(l.DelayScale) || !validScale(l.SigmaScale) || !validScale(l.RCScale) {
			return nil, fmt.Errorf("core: scenario %d (%q) has a non-finite or non-positive scale", s, l.Name)
		}
		e.scaleMean[0][s], e.scaleMean[1][s] = l.DelayScale, l.RCScale
		e.scaleStd[0][s], e.scaleStd[1][s] = l.SigmaScale, l.SigmaScale
	}
	// The engine binds to its own shallow copy of the state whose annotation
	// slabs are cloned: SetArcDelay must not leak across engines sharing one
	// compiled state, and st's nominal slabs are not kept alive by the engine.
	own := *st
	for rf := 0; rf < 2; rf++ {
		own.ArcMean[rf] = append([]float64(nil), st.ArcMean[rf]...)
		own.ArcStd[rf] = append([]float64(nil), st.ArcStd[rf]...)
	}
	e.bindState(&own)
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
	return e, nil
}

// bindState points the engine at st: topology, schedule, SP/EP tables, clock
// network and — aliased, not copied — annotation slabs, so e.st always
// carries the engine's *current* annotations (ExportState).
func (e *Engine) bindState(st *State) {
	e.st = st
	e.numPins, e.period, e.nSigma = st.NumPins, st.Period, st.NSigma
	e.faninStart, e.faninArc, e.faninFrom, e.faninSense =
		st.FaninStart, st.FaninArc, st.FaninFrom, st.FaninSense
	e.arcMean, e.arcStd = st.ArcMean, st.ArcStd
	e.arcKind, e.arcCell, e.arcNet, e.arcFrom, e.arcTo =
		st.ArcKind, st.ArcCell, st.ArcNet, st.ArcFrom, st.ArcTo
	e.lv = st.levels()
	e.spPin, e.spNode, e.spMean, e.spStd, e.spOfPin =
		st.SpPin, st.SpNode, st.SpMean, st.SpStd, st.SpOfPin
	e.epPin, e.epNode, e.epBase, e.epHold, e.epOfPin =
		st.EpPin, st.EpNode, st.EpBase, st.EpHold, st.EpOfPin
	e.clkParent, e.clkCumVar, e.clkDepth = st.ClkParent, st.ClkCumVar, st.ClkDepth
	e.foStart, e.foAdj, e.foArc = st.FoStart, st.FoAdj, st.FoArc
}

// seedHeadroom is the pin headroom (tensor rows beyond NumPins) a reseeded
// engine reserves for in-place structural growth: 4096 pins = 2048 buffer
// insertions before a reseed has to relocate the tensors. The cost is
// 2*headroom*S*K float64 slots per tensor — a few MB at most.
const seedHeadroom = 4096

// Reseed returns a fully evaluated engine over st — the compiled state of an
// op batch applied to e's tables: buffers spliced in or bypassed, arcs
// re-annotated — warm-started from e's converged queues by re-propagating
// only the fan-out cone of the seed pins (every pin whose fan-in set or
// fan-in delay changed, including appended pins), in every lane at once. The
// result is bit-identical to a cold NewEngineLanes over st + full evaluation:
// pin ids are stable across structural edits (pins are append-only; a
// bypassed buffer keeps its pins as a dead end), so e's converged Top-K
// planes are valid arrival state for every pin outside the seeds' cone, and
// the equality-stopping incremental wavefront recomputes exactly the pins
// whose queues differ. e must have completed a full evaluation.
//
// With inPlace false, e is left untouched (it may be a base shared with other
// sessions) and the result is a new engine with seedHeadroom spare tensor
// rows. With inPlace true — e is private to the caller, the steady state of
// an optimizer applying many edit batches to one session — e itself is
// re-pointed at st and returned: no tensor allocation while the headroom
// lasts, no annotation copy, no exception recompile. st must then derive
// from e's current state by CompileIncrementalPatched (SP/EP/exception
// tables unchanged), e ADOPTS st's annotation slabs
// (SetArcDelay writes them), and every lazily built cache is dropped.
// Precondition violations are reported before anything is mutated.
func (e *Engine) Reseed(st *State, seeds []int32, inPlace bool) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("core: Reseed requires a state")
	}
	if st.NumPins < e.numPins {
		return nil, fmt.Errorf("core: pin count shrank %d -> %d (pins are append-only)", e.numPins, st.NumPins)
	}
	if inPlace && (len(st.EpPin) != len(e.epPin) || len(st.SpPin) != len(e.spPin)) {
		return nil, fmt.Errorf("core: in-place Reseed cannot change the SP/EP sets")
	}
	sp := e.tracer.StartArg("engine-reseed", "seeds", int64(len(seeds)))
	defer sp.End()
	oldPins := e.numPins
	ne := e
	if !inPlace {
		var err error
		if ne, err = newEngineBody(st, e.scns, e.opt); err != nil {
			return nil, err
		}
	}
	if !inPlace || st.NumPins > e.capPins {
		// Relocate the rf blocks (the tensors are rf-major, so each moves when
		// the row stride changes) into tensors with a fresh allowance. Rare in
		// place: it takes headroom/2 insert batches to run out.
		newCap := st.NumPins + seedHeadroom
		*ne.top.q = e.top.q.restride(e.capPins, newCap, oldPins, e.qstride)
		if e.hold != nil {
			*ne.hold.q = e.hold.q.restride(e.capPins, newCap, oldPins, e.qstride)
		}
		ne.capPins = newCap
	}
	if inPlace {
		// The exception lookup keys on SP/EP pins only, which structural
		// edits never touch — e.exc stays. Every topology-derived lazy cache
		// is invalidated; it rebuilds on first use.
		e.bindState(st)
		e.inc, e.plan, e.grad = nil, nil, nil
		e.pinOwner, e.arcStage, e.stageAcc = nil, nil, nil
	}
	// Every pin keeps its row — e's converged queues stay where they are —
	// and appended pins take rows oldPins... in id order (levels that drift
	// apart under edits cost locality only). A new engine owns a copy of the
	// map; e's is not touched.
	if !inPlace {
		ne.row = make([]int32, oldPins, st.NumPins)
		copy(ne.row, e.row)
	}
	for p := oldPins; p < st.NumPins; p++ {
		ne.row = append(ne.row, int32(p))
	}
	// Appended pins start with empty queues, exactly like a cold engine
	// entering its first recompute; their rows are one contiguous run.
	if st.NumPins > oldPins {
		for rf := 0; rf < 2; rf++ {
			lo := ne.base(rf, int32(oldPins))
			hi := lo + (st.NumPins-oldPins)*ne.qstride
			clearQueue(ne.top.q.sp[lo:hi])
			if ne.hold != nil {
				clearQueue(ne.hold.q.sp[lo:hi])
			}
		}
	}
	ne.PropagateIncrementalPins(seeds)
	ne.RefreshSlacks()
	if ne.hold != nil {
		ne.RefreshHoldSlacks()
	}
	return ne, nil
}

// Options returns the engine's construction options (topo sessions use them
// to build seeded engines with the base engine's exact configuration).
func (e *Engine) Options() Options { return e.opt }

// ExportState returns the engine's compiled state with its *current* arc
// annotations — the payload of a snapshot save (e.g. the serving daemon's
// /admin/snapshot after committed ECOs). The returned State shares the
// engine's memory: serialize it before mutating the engine further.
func (e *Engine) ExportState() *State {
	out := *e.st
	return &out
}

// Design returns the design name carried through compilation.
func (e *Engine) Design() string { return e.st.Design }
