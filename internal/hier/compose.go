// Full-chip composition: stitch N block models plus top-level interconnect
// into a composed circuitops.Tables/core.State orders of magnitude smaller
// than the flattened chip, and run the ordinary flat engine over it.
//
// Each instance contributes four pin groups to the top graph:
//
//	ins   — its boundary inputs (wire sinks; unwired ones keep the block's
//	        original launch distribution as a startpoint)
//	outs  — its boundary outputs (wire sources)
//	veps  — one virtual endpoint per input, carrying the block's worst
//	        boundary-launched internal constraint as (cons arc, required
//	        time); this is where cross-block paths are checked
//	vlps  — one virtual launch startpoint per output, driving the block's
//	        worst internally-launched arrival into the output
//
// plus the thru arc pairs in→out. The top graph has a single clock node with
// zero variance, so cross-block CPPR credit is zero by construction — the
// same assumption extraction folds into its constraint requirements
// (DESIGN.md §16 spells out when the two agree exactly).
//
// Per-block endpoint slacks are recovered on demand: RecoverBlock
// back-annotates the top engine's boundary arrivals onto the block as feeder
// startpoints and re-runs the flat engine over that one block, yielding the
// min of internal and boundary-launched slack per endpoint — the flat
// semantics, at one-block cost.
package hier

import (
	"fmt"
	"math"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/sdc"
)

// Chip is a composition request: one block model per instance plus the
// top-level interconnect. Wire ports index the models' Ins/Outs lists.
type Chip struct {
	Name   string
	Models []*BlockModel
	Wires  []bench.ChipWire
}

// TopIndex maps (instance, boundary port) to pin ids in the composed top
// graph and records which ports the interconnect drives.
type TopIndex struct {
	NumPins  int
	Base     []int32
	NumIns   []int
	NumOuts  []int
	WiredIn  [][]bool
	WiredOut [][]bool
}

// InPin returns the top-graph pin of instance inst's boundary input j.
func (x *TopIndex) InPin(inst, j int) int32 { return x.Base[inst] + int32(j) }

// OutPin returns the top-graph pin of instance inst's boundary output j.
func (x *TopIndex) OutPin(inst, j int) int32 {
	return x.Base[inst] + int32(x.NumIns[inst]+j)
}

// VepPin returns the virtual endpoint pin guarding instance inst's input j.
func (x *TopIndex) VepPin(inst, j int) int32 {
	return x.Base[inst] + int32(x.NumIns[inst]+x.NumOuts[inst]+j)
}

// VlpPin returns the virtual launch pin behind instance inst's output j.
func (x *TopIndex) VlpPin(inst, j int) int32 {
	return x.Base[inst] + int32(2*x.NumIns[inst]+x.NumOuts[inst]+j)
}

// validate checks the chip's models and wires are composable and returns the
// scenario count every model agrees on.
func (c *Chip) validate() (int, error) {
	if len(c.Models) == 0 {
		return 0, fmt.Errorf("hier: chip %q has no instances", c.Name)
	}
	m0 := c.Models[0]
	for i, m := range c.Models {
		if m == nil {
			return 0, fmt.Errorf("hier: chip %q instance %d has no model", c.Name, i)
		}
		if m.Period != m0.Period || m.NSigma != m0.NSigma {
			return 0, fmt.Errorf("hier: instance %d (%s) period/nsigma %v/%v != instance 0 (%s) %v/%v",
				i, m.Design, m.Period, m.NSigma, m0.Design, m0.Period, m0.NSigma)
		}
		if len(m.Scen) != len(m0.Scen) {
			return 0, fmt.Errorf("hier: instance %d has %d scenarios, instance 0 has %d",
				i, len(m.Scen), len(m0.Scen))
		}
		for s := range m.Scen {
			if m.Scen[s].Scenario != m0.Scen[s].Scenario {
				return 0, fmt.Errorf("hier: instance %d scenario %d %+v != instance 0 %+v",
					i, s, m.Scen[s].Scenario, m0.Scen[s].Scenario)
			}
		}
	}
	sink := make(map[[2]int]bool)
	for wi, w := range c.Wires {
		if w.FromInst < 0 || w.FromInst >= len(c.Models) || w.ToInst < 0 || w.ToInst >= len(c.Models) {
			return 0, fmt.Errorf("hier: wire %d instance out of range", wi)
		}
		if w.FromPort < 0 || w.FromPort >= len(c.Models[w.FromInst].Outs) {
			return 0, fmt.Errorf("hier: wire %d source port %d out of range", wi, w.FromPort)
		}
		if w.ToPort < 0 || w.ToPort >= len(c.Models[w.ToInst].Ins) {
			return 0, fmt.Errorf("hier: wire %d sink port %d out of range", wi, w.ToPort)
		}
		if w.Std < 0 {
			return 0, fmt.Errorf("hier: wire %d negative sigma", wi)
		}
		key := [2]int{w.ToInst, w.ToPort}
		if sink[key] {
			return 0, fmt.Errorf("hier: wire %d duplicates sink %d.%d", wi, w.ToInst, w.ToPort)
		}
		sink[key] = true
	}
	return len(m0.Scen), nil
}

// newTopIndex lays the instances out and marks the wired ports.
func (c *Chip) newTopIndex() *TopIndex {
	x := &TopIndex{
		Base:     make([]int32, len(c.Models)),
		NumIns:   make([]int, len(c.Models)),
		NumOuts:  make([]int, len(c.Models)),
		WiredIn:  make([][]bool, len(c.Models)),
		WiredOut: make([][]bool, len(c.Models)),
	}
	n := int32(0)
	for i, m := range c.Models {
		x.Base[i] = n
		x.NumIns[i], x.NumOuts[i] = len(m.Ins), len(m.Outs)
		x.WiredIn[i] = make([]bool, len(m.Ins))
		x.WiredOut[i] = make([]bool, len(m.Outs))
		n += int32(2*len(m.Ins) + 2*len(m.Outs))
	}
	x.NumPins = int(n)
	for _, w := range c.Wires {
		x.WiredIn[w.ToInst][w.ToPort] = true
		x.WiredOut[w.FromInst][w.FromPort] = true
	}
	return x
}

// ComposeTop stitches the chip's top graph for scenario index si: block
// models become launch/cons/thru arcs and virtual SP/EP rows, wires become
// net arcs with the scenario's net-arc derates (Scenario.Scale, as a lane
// over the flattened chip applies them).
func ComposeTop(c *Chip, si int) (*circuitops.Tables, *TopIndex, error) {
	nScen, err := c.validate()
	if err != nil {
		return nil, nil, err
	}
	if si < 0 || si >= nScen {
		return nil, nil, fmt.Errorf("hier: scenario %d out of range (%d)", si, nScen)
	}
	x := c.newTopIndex()
	scn := c.Models[0].Scen[si].Scenario

	t := &circuitops.Tables{
		Design:     c.Name,
		NumPins:    x.NumPins,
		Period:     c.Models[0].Period,
		NSigma:     c.Models[0].NSigma,
		ClockNodes: []circuitops.ClockNodeRow{{Parent: -1, CumVar: 0}},
	}
	neg := math.Inf(-1)
	for i, m := range c.Models {
		sm := &m.Scen[si]
		nO := len(m.Outs)
		// Virtual launch pins: worst internally-launched arrival per output.
		// Unwired outputs keep their port endpoint check (OutReq), as flat
		// keeps the port's EP row — but only for boundary-launched paths:
		// internally-launched ones are covered exactly (exceptions, CPPR) by
		// the block's IntSlack, so the vlp's arrivals are masked off the
		// port check with a false-path row.
		for o := range m.Outs {
			outPin := x.OutPin(i, o)
			if !x.WiredOut[i][o] {
				t.EPs = append(t.EPs, circuitops.EPRow{
					Pin: outPin, CaptureNode: 0,
					BaseReqRise: m.OutReq[o*2+0], BaseReqFall: m.OutReq[o*2+1],
					HoldReqRise: math.Inf(1), HoldReqFall: math.Inf(1),
				})
			}
			lm := sm.LaunchMean[o*2 : o*2+2]
			ls := sm.LaunchStd[o*2 : o*2+2]
			if lm[0] == neg && lm[1] == neg {
				continue
			}
			vlp := x.VlpPin(i, o)
			t.SPs = append(t.SPs, circuitops.SPRow{Pin: vlp, ClockNode: 0})
			t.Arcs = append(t.Arcs, circuitops.ArcRow{
				From: vlp, To: outPin,
				Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
				MeanRise: lm[0], StdRise: ls[0],
				MeanFall: lm[1], StdFall: ls[1],
			})
			if !x.WiredOut[i][o] {
				t.Exceptions = append(t.Exceptions, circuitops.ExceptionRow{
					SPPin: vlp, EPPin: outPin, Kind: uint8(sdc.FalsePath),
				})
			}
		}
		// The block's boundary-pair exceptions, re-keyed onto top pins. They
		// bind by startpoint pin, so they apply exactly when the input is
		// unwired (it is then the startpoint, as in flat) and never match a
		// wired input's cross-block arrivals.
		for _, pe := range m.PortExc {
			sp, ep := x.InPin(i, int(pe.In)), x.OutPin(i, int(pe.Out))
			if pe.False {
				t.Exceptions = append(t.Exceptions, circuitops.ExceptionRow{
					SPPin: sp, EPPin: ep, Kind: uint8(sdc.FalsePath),
				})
			}
			if pe.Cycles > 0 {
				t.Exceptions = append(t.Exceptions, circuitops.ExceptionRow{
					SPPin: sp, EPPin: ep, Kind: uint8(sdc.Multicycle), Cycles: pe.Cycles,
				})
			}
		}
		for j, in := range m.Ins {
			// Unwired inputs keep the block's own launch distribution.
			if !x.WiredIn[i][j] {
				t.SPs = append(t.SPs, circuitops.SPRow{
					Pin: x.InPin(i, j), ClockNode: 0, Mean: in.Mean, Std: in.Std,
				})
			}
			// Cons arc + virtual endpoint: the block's worst
			// boundary-launched internal constraint per input transition —
			// exception-aware variant when the input is a real startpoint,
			// raw variant when a wire drives it cross-block.
			cm := sm.ConsMean[j*2 : j*2+2]
			cs := sm.ConsStd[j*2 : j*2+2]
			cq := sm.ConsReq[j*2 : j*2+2]
			if x.WiredIn[i][j] {
				cm = sm.ConsRawMean[j*2 : j*2+2]
				cs = sm.ConsRawStd[j*2 : j*2+2]
				cq = sm.ConsRawReq[j*2 : j*2+2]
			}
			if cm[0] > neg || cm[1] > neg {
				vep := x.VepPin(i, j)
				t.Arcs = append(t.Arcs, circuitops.ArcRow{
					From: x.InPin(i, j), To: vep,
					Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
					MeanRise: cm[0], StdRise: cs[0],
					MeanFall: cm[1], StdFall: cs[1],
				})
				t.EPs = append(t.EPs, circuitops.EPRow{
					Pin: vep, CaptureNode: 0,
					BaseReqRise: cq[0], BaseReqFall: cq[1],
					HoldReqRise: math.Inf(1), HoldReqFall: math.Inf(1),
				})
			}
			// Thru arcs: the positive/negative unate pair per boundary pair.
			for o := range m.Outs {
				for xx := 0; xx < 2; xx++ {
					mr, sr := sm.Thru(nO, j, o, xx, 0)
					mf, sf := sm.Thru(nO, j, o, xx, 1)
					if mr == neg && mf == neg {
						continue
					}
					sense := liberty.PositiveUnate
					if xx == 1 {
						sense = liberty.NegativeUnate
					}
					t.Arcs = append(t.Arcs, circuitops.ArcRow{
						From: x.InPin(i, j), To: x.OutPin(i, o),
						Kind: 0, Sense: uint8(sense), Cell: -1, Net: -1,
						MeanRise: mr, StdRise: sr,
						MeanFall: mf, StdFall: sf,
					})
				}
			}
		}
	}
	// Top-level interconnect, derated like any flattened net arc.
	ms, ss := scn.Scale(1)
	for wi, w := range c.Wires {
		mean := w.Mean * ms
		std := w.Std * ss
		t.Arcs = append(t.Arcs, circuitops.ArcRow{
			From: x.OutPin(w.FromInst, w.FromPort), To: x.InPin(w.ToInst, w.ToPort),
			Kind: 1, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: int32(wi),
			MeanRise: mean, StdRise: std,
			MeanFall: mean, StdFall: std,
		})
	}
	return t, x, nil
}

// ScenarioResult is one scenario's composed-graph analysis.
type ScenarioResult struct {
	Scenario core.Scenario
	Tab      *circuitops.Tables
	Index    *TopIndex
	Engine   *core.Engine

	// TopWNS/TopTNS summarize the virtual endpoints of the top graph (the
	// cross-block constraints); WNS/TNS fold in the blocks' internal
	// summaries. WNS is exact within the model error; TNS is an upper bound
	// on magnitude — an endpoint violated by both an internal and a
	// boundary-launched path contributes through both terms, where flat
	// analysis takes their min (DESIGN.md §16). The recovery path reports
	// flat-semantics slacks.
	TopWNS, TopTNS float64
	WNS, TNS       float64
}

// Analysis is a full hierarchical chip analysis: one composed top graph and
// engine per scenario.
type Analysis struct {
	Chip *Chip
	Scen []*ScenarioResult
}

// Analyze composes and propagates the chip's top graph for every scenario.
// The per-scenario engines stay live for boundary back-annotation
// (RecoverBlock); Close releases them.
func Analyze(c *Chip, opt core.Options) (*Analysis, error) {
	nScen, err := c.validate()
	if err != nil {
		return nil, err
	}
	if opt.TopK < 1 {
		opt.TopK = 16
	}
	opt.Hold = false
	a := &Analysis{Chip: c}
	for si := 0; si < nScen; si++ {
		sr, err := analyzeScenario(c, si, opt)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.Scen = append(a.Scen, sr)
	}
	return a, nil
}

// analyzeScenario is one scenario's compose + compile + propagate + summary
// pass — the unit the hierarchical benchmark times.
func analyzeScenario(c *Chip, si int, opt core.Options) (*ScenarioResult, error) {
	tab, x, err := ComposeTop(c, si)
	if err != nil {
		return nil, err
	}
	st, err := core.Compile(tab)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngineFromState(st, opt)
	if err != nil {
		return nil, err
	}
	e.Run()
	sr := &ScenarioResult{
		Scenario: c.Models[0].Scen[si].Scenario,
		Tab:      tab,
		Index:    x,
		Engine:   e,
		TopWNS:   e.WNS(),
		TopTNS:   e.TNS(),
	}
	// Fold in the blocks' internal summaries, skipping wired-out port
	// endpoints — flat analysis drops those EP rows entirely (the paths
	// continue into the next block), so their internal slacks are phantom
	// checks in a composition.
	sr.WNS, sr.TNS = sr.TopWNS, sr.TopTNS
	for inst, m := range c.Models {
		sm := &m.Scen[si]
		skip := make(map[int32]bool)
		for o, p := range m.Outs {
			if x.WiredOut[inst][o] {
				skip[p] = true
			}
		}
		for ei, s := range sm.IntSlack {
			if skip[m.EpPin[ei]] {
				continue
			}
			if s < sr.WNS {
				sr.WNS = s
			}
			if s < 0 {
				sr.TNS += s
			}
		}
	}
	return sr, nil
}

// Close releases every scenario engine.
func (a *Analysis) Close() {
	for _, sr := range a.Scen {
		if sr != nil && sr.Engine != nil {
			sr.Engine.Close()
		}
	}
}

// RecoverBlock back-annotates scenario si's boundary arrivals onto instance
// inst and re-runs the flat engine over that single block, returning every
// block endpoint's slack (aligned with the model's EpPin list). Wired inputs
// are re-seeded through feeder startpoints carrying the top engine's worst
// arrival entry per transition; unwired inputs keep their original
// startpoint rows, so input-keyed exceptions still apply exactly as they do
// in a flattened analysis. src must be the same compiled state the
// instance's model was extracted from.
func (a *Analysis) RecoverBlock(si, inst int, src *core.State, opt core.Options) ([]float64, error) {
	if si < 0 || si >= len(a.Scen) {
		return nil, fmt.Errorf("hier: scenario %d out of range (%d)", si, len(a.Scen))
	}
	if inst < 0 || inst >= len(a.Chip.Models) {
		return nil, fmt.Errorf("hier: instance %d out of range (%d)", inst, len(a.Chip.Models))
	}
	m := a.Chip.Models[inst]
	if src.NumPins != m.SourcePins || len(src.ArcFrom) != m.SourceArcs {
		return nil, fmt.Errorf("hier: state for %s has %d pins / %d arcs, model extracted from %d / %d",
			m.Design, src.NumPins, len(src.ArcFrom), m.SourcePins, m.SourceArcs)
	}
	sr := a.Scen[si]
	x := sr.Index

	tab := core.ScaleTables(src.Tables(), sr.Scenario)
	wiredPins := make(map[int32]int, len(m.Ins)) // block pin -> boundary index
	var wired []int
	for j := range m.Ins {
		if x.WiredIn[inst][j] {
			wiredPins[m.Ins[j].Pin] = j
			wired = append(wired, j)
		}
	}
	// Drop the wired inputs' startpoint rows; their arrivals now come from
	// the top graph through feeder pins.
	sps := make([]circuitops.SPRow, 0, len(tab.SPs))
	for _, s := range tab.SPs {
		if _, ok := wiredPins[s.Pin]; ok {
			continue
		}
		sps = append(sps, s)
	}
	tab.SPs = sps
	for fi, j := range wired {
		feeder := int32(tab.NumPins + fi)
		row := circuitops.ArcRow{
			From: feeder, To: m.Ins[j].Pin,
			Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
		}
		for rf := 0; rf < 2; rf++ {
			mean, std, spsQ := sr.Engine.TopEntries(rf, x.InPin(inst, j))
			mv, sv := math.Inf(-1), 0.0
			if len(spsQ) > 0 && spsQ[0] >= 0 {
				mv, sv = mean[0], std[0]
			}
			if rf == 0 {
				row.MeanRise, row.StdRise = mv, sv
			} else {
				row.MeanFall, row.StdFall = mv, sv
			}
		}
		tab.Arcs = append(tab.Arcs, row)
		tab.SPs = append(tab.SPs, circuitops.SPRow{Pin: feeder, ClockNode: 0})
	}
	tab.NumPins += len(wired)

	st, err := core.Compile(tab)
	if err != nil {
		return nil, err
	}
	opt.Hold = false
	if opt.TopK < 1 {
		opt.TopK = m.TopK
	}
	e, err := core.NewEngineFromState(st, opt)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	e.Run()
	return e.EvalSlacks(), nil
}
