// Package refsta is the reference signoff STA engine of this reproduction —
// the role Synopsys PrimeTime plays in the paper. It performs NLDM delay
// calculation with slew propagation, POCV statistical arrival propagation
// with *exact* (unbounded) unique-startpoint tracking for CPPR, endpoint
// slack/WNS/TNS computation with timing exceptions, incremental
// update-timing, and estimate_eco-style local delay estimation.
//
// INSTA (internal/core) initializes from this engine via the circuitops
// extraction and is validated against its endpoint slacks, exactly as the
// paper validates against PrimeTime (Table I, Figs. 6-8).
package refsta

import (
	"fmt"
	"math"

	"insta/internal/levelize"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/rc"
	"insta/internal/sdc"
)

// ArcKind distinguishes cell timing arcs from interconnect arcs.
type ArcKind uint8

// Arc kinds.
const (
	CellArc ArcKind = iota
	NetArc
)

// Arc is one annotated timing arc of the graph.
type Arc struct {
	From, To netlist.PinID
	Kind     ArcKind
	Sense    liberty.Unate

	// Cell arcs: owning cell and the index of the liberty arc within the
	// library cell (stable across drive swaps of the same footprint).
	Cell   netlist.CellID
	LibArc int32
	// Net arcs: net and sink index.
	Net     netlist.NetID
	SinkIdx int32

	// Annotated delay per *output* transition (Rise/Fall).
	Delay [2]num.Dist
}

// Config holds engine knobs.
type Config struct {
	NSigma    float64 // POCV corner multiplier; the paper uses 3.0
	ClockSlew float64 // transition at flip-flop clock pins, ps
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{NSigma: 3.0, ClockSlew: 15}
}

// spArr is one startpoint-resolved arrival entry.
type spArr struct {
	sp   int32 // startpoint index into Engine.SPs
	dist num.Dist
}

// Engine is a fully elaborated timing analysis session on one design.
type Engine struct {
	D   *netlist.Design
	Lib *liberty.Library
	Con *sdc.Constraints
	Par *rc.Parasitics
	Exc *sdc.ExceptionTable
	Cfg Config

	Arcs   []Arc
	fanin  adjacency // per pin: arc ids terminating at the pin
	fanout adjacency // per pin: arc ids originating at the pin
	Lv     *levelize.Result

	// Startpoints and endpoints.
	SPs     []netlist.PinID // flip-flop clock pins, then primary inputs
	SPNode  []int32         // clock tree node per SP (root for primary inputs)
	EPs     []netlist.PinID // flip-flop D pins, then primary outputs
	epIndex map[netlist.PinID]int32
	EPSetup [][2]float64 // setup requirement per EP per data transition
	EPNode  []int32      // capture clock node per EP

	// Per-pin analysis state.
	load    []float64    // capacitive load seen by each driver pin, fF
	sinkCap []float64    // pinCap of each net sink as of the last computeLoads, fF
	slew    [2][]float64 // worst transition per pin per rf, ps
	arr     [2][][]spArr // exact SP-resolved arrivals per pin per rf, sorted by sp
	isSP    []bool
	spOfPin []int32 // SP index for source pins, -1 otherwise

	epSlack []float64 // per EP, +Inf when fully excepted/unreached

	// Hold analysis state (nil until EnableHoldAnalysis).
	arrMin      [2][][]spArr // early SP-resolved arrivals
	epHoldSlack []float64
	EPHold      [][2]float64 // hold requirement per EP per data transition

	dirty map[netlist.PinID]bool // pins whose fan-in annotation changed since last update

	// Cached stats from the last update.
	LastFullUpdate bool
}

// New builds an engine: constructs the timing graph, levelizes it, computes
// loads, and runs a full timing update.
func New(d *netlist.Design, lib *liberty.Library, con *sdc.Constraints, par *rc.Parasitics, cfg Config) (*Engine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := par.Validate(d); err != nil {
		return nil, err
	}
	exc, err := con.Compile()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		D: d, Lib: lib, Con: con, Par: par, Exc: exc, Cfg: cfg,
		epIndex: make(map[netlist.PinID]int32),
		dirty:   make(map[netlist.PinID]bool),
	}
	if err := e.buildGraph(); err != nil {
		return nil, err
	}
	if err := e.identifyEndpoints(); err != nil {
		return nil, err
	}
	n := d.NumPins()
	e.load = make([]float64, n)
	e.sinkCap = make([]float64, n)
	e.slew[0] = make([]float64, n)
	e.slew[1] = make([]float64, n)
	e.arr[0] = make([][]spArr, n)
	e.arr[1] = make([][]spArr, n)
	e.epSlack = make([]float64, len(e.EPs))
	e.UpdateTimingFull()
	return e, nil
}

// adjacency is a per-pin arc id list in CSR form. The timing graph is built
// once and only ever ranged over, so two flat slices replace one slice header
// (and one allocation) per pin.
type adjacency struct {
	start []int32 // len pins+1; of(p) is arcs[start[p]:start[p+1]]
	arcs  []int32 // arc ids, ascending within each pin
}

// of returns pin p's arc ids in ascending order — the order the arcs were
// enumerated in, which is the order merges fold their contributions in.
func (a *adjacency) of(p netlist.PinID) []int32 {
	return a.arcs[a.start[p]:a.start[p+1]]
}

// buildAdjacency groups arc ids by the pin end(arc) returns: count, prefix-sum,
// fill in arc id order.
func buildAdjacency(numPins int, arcs []Arc, end func(*Arc) netlist.PinID) adjacency {
	start := make([]int32, numPins+1)
	for i := range arcs {
		start[end(&arcs[i])+1]++
	}
	for p := 0; p < numPins; p++ {
		start[p+1] += start[p]
	}
	ids := make([]int32, len(arcs))
	next := append([]int32(nil), start[:numPins]...)
	for i := range arcs {
		p := end(&arcs[i])
		ids[next[p]] = int32(i)
		next[p]++
	}
	return adjacency{start: start, arcs: ids}
}

// buildGraph enumerates net and cell arcs and levelizes the pin graph.
func (e *Engine) buildGraph() error {
	d := e.D
	n := d.NumPins()
	numArcs := 0
	for ni := range d.Nets {
		numArcs += len(d.Nets[ni].Sinks)
	}
	for ci := range d.Cells {
		numArcs += len(e.Lib.Cell(d.Cells[ci].LibCell).Arcs)
	}
	e.Arcs = make([]Arc, 0, numArcs)
	// Net arcs.
	for ni := range d.Nets {
		net := &d.Nets[ni]
		for si, sink := range net.Sinks {
			e.Arcs = append(e.Arcs, Arc{
				From: net.Driver, To: sink, Kind: NetArc,
				Sense: liberty.PositiveUnate, Cell: netlist.NoCell,
				Net: netlist.NetID(ni), SinkIdx: int32(si),
			})
		}
	}
	// Cell arcs.
	for ci := range d.Cells {
		cell := &d.Cells[ci]
		lc := e.Lib.Cell(cell.LibCell)
		for ai := range lc.Arcs {
			la := &lc.Arcs[ai]
			from := d.CellPin(netlist.CellID(ci), la.From)
			to := d.CellPin(netlist.CellID(ci), la.To)
			if from == netlist.NoPin || to == netlist.NoPin {
				return fmt.Errorf("refsta: cell %s missing pin for arc %s->%s", cell.Name, la.From, la.To)
			}
			e.Arcs = append(e.Arcs, Arc{
				From: from, To: to, Kind: CellArc, Sense: la.Sense,
				Cell: netlist.CellID(ci), LibArc: int32(ai), Net: netlist.NoNet,
			})
		}
	}
	e.fanin = buildAdjacency(n, e.Arcs, func(a *Arc) netlist.PinID { return a.To })
	e.fanout = buildAdjacency(n, e.Arcs, func(a *Arc) netlist.PinID { return a.From })
	lvArcs := make([]levelize.Arc, len(e.Arcs))
	for i, a := range e.Arcs {
		lvArcs[i] = levelize.Arc{From: int32(a.From), To: int32(a.To)}
	}
	lv, err := levelize.Levelize(n, lvArcs)
	if err != nil {
		return err
	}
	e.Lv = lv
	return nil
}

// identifyEndpoints enumerates startpoints (FF clock pins, primary inputs)
// and endpoints (FF data pins, primary outputs) with their clock bindings.
func (e *Engine) identifyEndpoints() error {
	d := e.D
	e.isSP = make([]bool, d.NumPins())
	e.spOfPin = make([]int32, d.NumPins())
	for i := range e.spOfPin {
		e.spOfPin[i] = -1
	}
	addSP := func(p netlist.PinID, node int32) {
		idx := int32(len(e.SPs))
		e.SPs = append(e.SPs, p)
		e.SPNode = append(e.SPNode, node)
		e.isSP[p] = true
		e.spOfPin[p] = idx
	}
	addEP := func(p netlist.PinID, node int32, setup [2]float64) {
		idx := int32(len(e.EPs))
		e.EPs = append(e.EPs, p)
		e.EPNode = append(e.EPNode, node)
		e.EPSetup = append(e.EPSetup, setup)
		e.epIndex[p] = idx
	}
	for ci := range d.Cells {
		cell := &d.Cells[ci]
		if !cell.Seq {
			continue
		}
		lc := e.Lib.Cell(cell.LibCell)
		cp := d.CellPin(netlist.CellID(ci), lc.ClockPin)
		dp := d.CellPin(netlist.CellID(ci), lc.DataPin)
		if cp == netlist.NoPin || dp == netlist.NoPin {
			return fmt.Errorf("refsta: sequential cell %s lacks %s/%s pins", cell.Name, lc.ClockPin, lc.DataPin)
		}
		node, ok := d.Clock.SinkOf(cp)
		if !ok {
			return fmt.Errorf("refsta: clock pin %s not bound to clock tree", d.Pins[cp].Name)
		}
		addSP(cp, node)
		addEP(dp, node, lc.Setup)
	}
	for _, p := range d.PortIns {
		addSP(p, e.rootNode())
	}
	for _, p := range d.PortOuts {
		addEP(p, e.rootNode(), [2]float64{0, 0})
	}
	if len(e.EPs) == 0 {
		return fmt.Errorf("refsta: design %s has no timing endpoints", d.Name)
	}
	return nil
}

func (e *Engine) rootNode() int32 {
	if e.D.Clock != nil {
		return e.D.Clock.Root()
	}
	return 0
}

// NumArcs returns the timing arc count.
func (e *Engine) NumArcs() int { return len(e.Arcs) }

// Endpoints returns the endpoint pin list (FF data pins, then primary outputs).
func (e *Engine) Endpoints() []netlist.PinID { return e.EPs }

// Startpoints returns the startpoint pin list (FF clock pins, then primary inputs).
func (e *Engine) Startpoints() []netlist.PinID { return e.SPs }

// Slew returns the worst propagated transition at pin p for transition rf.
func (e *Engine) Slew(rf int, p netlist.PinID) float64 { return e.slew[rf][p] }

// Load returns the capacitive load annotated at driver pin p.
func (e *Engine) Load(p netlist.PinID) float64 { return e.load[p] }

// credit returns the CPPR common-path credit between launch SP index sp and
// the capture node of EP index ep: 2*NSigma*sqrt(shared clock variance).
func (e *Engine) credit(sp, ep int32) float64 {
	if e.D.Clock == nil {
		return 0
	}
	common := e.D.Clock.CommonVar(e.SPNode[sp], e.EPNode[ep])
	return 2 * e.Cfg.NSigma * math.Sqrt(common)
}

// earlyClockAt returns the early-corner capture clock arrival at EP index ep.
func (e *Engine) earlyClockAt(ep int32) float64 {
	if e.D.Clock == nil {
		return 0
	}
	return e.D.Clock.Arrival(e.EPNode[ep]).EarlyCorner(e.Cfg.NSigma)
}
