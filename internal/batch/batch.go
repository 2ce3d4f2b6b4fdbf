// Package batch is the scenario model over the engine's lane axis: named
// corners/modes, their parsing, the merged (worst-corner-per-endpoint) views,
// and Engine/Overlay as scenario-indexed faces of core's. All propagation —
// forward, hold, slack evaluation, incremental waves, overlays, reseeding —
// is core's one set of lane-strided kernels (DESIGN.md §9); nothing here
// touches a Top-K queue.
//
// The scenario model is the industrial derate form (set_timing_derate):
// scenario s sees cell-arc delays scaled by DelayScale, net-arc delays by
// RCScale and all sigmas by SigmaScale, while launch arrivals, required
// times and the clock network are shared. ScaleTables materializes the same
// model as a standalone extraction, and the differential tests assert that
// every scenario of a batched engine is bit-identical to an independent
// single-lane core.Engine built from those scaled tables — at any worker
// count.
package batch

import (
	"fmt"
	"strconv"
	"strings"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
)

// Scenario is one timing scenario (corner/mode) expressed as scale factors
// over the nominal characterization.
type Scenario struct {
	Name       string
	DelayScale float64 // cell-arc delay scaling
	SigmaScale float64 // POCV sigma scaling (cell and net arcs)
	RCScale    float64 // net-arc (interconnect) delay scaling
}

// DefaultScenarios returns the usual slow/typical/fast trio.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "ss", DelayScale: 1.18, SigmaScale: 1.25, RCScale: 1.10},
		{Name: "tt", DelayScale: 1.00, SigmaScale: 1.00, RCScale: 1.00},
		{Name: "ff", DelayScale: 0.86, SigmaScale: 0.90, RCScale: 0.92},
	}
}

// ParseScenarios resolves a -corners flag value: a comma-separated list of
// scenario names, each either a DefaultScenarios name ("ss,tt,ff") or an
// explicit override "name:delay/sigma/rc" ("hot:1.3/1.4/1.2"). Names must be
// unique.
func ParseScenarios(spec string) ([]Scenario, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("batch: empty scenario spec")
	}
	known := make(map[string]Scenario)
	for _, s := range DefaultScenarios() {
		known[s.Name] = s
	}
	seen := make(map[string]bool)
	var out []Scenario
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		var scn Scenario
		if name, scales, ok := strings.Cut(field, ":"); ok {
			parts := strings.Split(scales, "/")
			if len(parts) != 3 {
				return nil, fmt.Errorf("batch: scenario %q: want name:delay/sigma/rc", field)
			}
			vals := make([]float64, 3)
			for i, p := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("batch: scenario %q: bad scale %q", field, p)
				}
				vals[i] = v
			}
			scn = Scenario{Name: name, DelayScale: vals[0], SigmaScale: vals[1], RCScale: vals[2]}
		} else {
			var ok bool
			if scn, ok = known[field]; !ok {
				return nil, fmt.Errorf("batch: unknown scenario %q (defaults: ss, tt, ff; custom: name:delay/sigma/rc)", field)
			}
		}
		if seen[scn.Name] {
			return nil, fmt.Errorf("batch: duplicate scenario %q", scn.Name)
		}
		seen[scn.Name] = true
		out = append(out, scn)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("batch: empty scenario spec")
	}
	return out, nil
}

// unitIndex returns the index of the first scenario whose three factors are
// all exactly 1, or -1.
func unitIndex(scns []Scenario) int {
	for i, s := range scns {
		if s.DelayScale == 1 && s.SigmaScale == 1 && s.RCScale == 1 {
			return i
		}
	}
	return -1
}

// WithUnit returns scns with the typical scenario tt (1/1/1) prepended unless
// the list already has a unit-scale scenario: a serving daemon reads its
// nominal figures from that lane, so it always analyses one.
func WithUnit(scns []Scenario) ([]Scenario, error) {
	if unitIndex(scns) >= 0 {
		return scns, nil
	}
	for _, s := range scns {
		if s.Name == "tt" {
			return nil, fmt.Errorf("batch: scenario tt is derated and the list has no unit-scale (1/1/1) scenario; name one")
		}
	}
	return append([]Scenario{{Name: "tt", DelayScale: 1, SigmaScale: 1, RCScale: 1}}, scns...), nil
}

// ScaleTables returns a copy of t with every arc annotation scaled for one
// scenario — the standalone-extraction form of the derate model, used to
// build the independent single-corner engines the differential tests compare
// against. The multiplications here are the exact operations the engine's
// kernels perform inline per lane, so the results are bit-identical.
func ScaleTables(t *circuitops.Tables, scn Scenario) *circuitops.Tables {
	out := *t
	out.Arcs = make([]circuitops.ArcRow, len(t.Arcs))
	for i, a := range t.Arcs {
		ms := scn.DelayScale
		if a.Kind == 1 {
			ms = scn.RCScale
		}
		a.MeanRise *= ms
		a.MeanFall *= ms
		a.StdRise *= scn.SigmaScale
		a.StdFall *= scn.SigmaScale
		out.Arcs[i] = a
	}
	return &out
}

// Kernel tags: the batched engine runs core's kernels, so these are core's.
const (
	KernelOverlay      = core.KernelOverlay
	KernelOverlaySlack = core.KernelOverlaySlack
	KernelForward      = core.KernelForward
)

// Engine is a core.Engine with one lane per scenario. The embedded engine's
// lane-agnostic methods (Propagate, PropagateIncremental, Reseed, Pool,
// MemoryBytes, ...) apply as they are; the methods below re-index the
// per-lane results by scenario.
type Engine struct {
	*core.Engine
	scns []Scenario
}

// New initializes a scenario-batched engine from the nominal extraction
// tables: core.Compile followed by NewFromState, so warm-started batched
// engines (internal/snap) are bit-identical to cold-built ones.
func New(t *circuitops.Tables, scns []Scenario, opt core.Options) (*Engine, error) {
	st, err := core.Compile(t)
	if err != nil {
		return nil, err
	}
	return NewFromState(st, scns, opt)
}

// NewFromState stands up a scenario-batched engine over an already compiled
// state — the warm-start constructor (see core.NewEngineFromState).
func NewFromState(st *core.State, scns []Scenario, opt core.Options) (*Engine, error) {
	if len(scns) == 0 {
		return nil, fmt.Errorf("batch: no scenarios given")
	}
	lanes := make([]core.Lane, len(scns))
	for i, s := range scns {
		if s.DelayScale <= 0 || s.SigmaScale <= 0 || s.RCScale <= 0 {
			return nil, fmt.Errorf("batch: scenario %q has non-positive scale", s.Name)
		}
		lanes[i] = core.Lane{CellScale: s.DelayScale, NetScale: s.RCScale, SigmaScale: s.SigmaScale}
	}
	e, err := core.NewEngineLanes(st, lanes, opt)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: e, scns: append([]Scenario(nil), scns...)}, nil
}

// Wrap returns the scenario view of an engine built directly on core: lane s
// becomes scenario "lane<s>" with that lane's factors. A single-lane engine
// from core.NewEngine wraps to one unit-scale scenario, which is how a
// single-corner daemon serves through the same code as a multi-corner one.
func Wrap(c *core.Engine) *Engine {
	scns := make([]Scenario, c.Lanes())
	for s := range scns {
		l := c.Lane(s)
		scns[s] = Scenario{
			Name:       "lane" + strconv.Itoa(s),
			DelayScale: l.CellScale, SigmaScale: l.SigmaScale, RCScale: l.NetScale,
		}
	}
	return &Engine{Engine: c, scns: scns}
}

// Over returns e's scenario view over c, an engine with e's lanes — the
// result of reseeding e.Engine (core.Engine.Reseed) — reusing e itself when
// the reseed was in place.
func (e *Engine) Over(c *core.Engine) *Engine {
	if c == e.Engine {
		return e
	}
	return &Engine{Engine: c, scns: e.scns}
}

// Scenarios returns the engine's scenario list in propagation order.
func (e *Engine) Scenarios() []Scenario { return e.scns }

// NumScenarios returns S.
func (e *Engine) NumScenarios() int { return len(e.scns) }

// ScenarioIndex resolves a scenario name, or -1.
func (e *Engine) ScenarioIndex(name string) int {
	for i, s := range e.scns {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// UnitScenario returns the index of the first unit-scale (1/1/1) scenario —
// the lane that holds, bit for bit, what a single-lane engine over the
// nominal tables computes (x*1.0 == x) — or -1.
func (e *Engine) UnitScenario() int { return unitIndex(e.scns) }

// Run performs a full batched evaluation: Propagate, EvalSlacks and — when
// hold is enabled — EvalHoldSlacks.
func (e *Engine) Run() {
	e.Propagate()
	e.RefreshSlacks()
	if e.HoldEnabled() {
		e.RefreshHoldSlacks()
	}
}

// EvalSlacks computes every endpoint's setup slack in every scenario.
func (e *Engine) EvalSlacks() { e.RefreshSlacks() }

// EvalHoldSlacks computes every endpoint's hold slack in every scenario.
func (e *Engine) EvalHoldSlacks() { e.RefreshHoldSlacks() }

// SetArcDelay re-annotates one arc's *nominal* delay distribution for output
// transition rf; every scenario sees it through its scale factors.
func (e *Engine) SetArcDelay(arc int32, rf int, mean, std float64) {
	e.Engine.SetArcDelay(arc, rf, num.Dist{Mean: mean, Std: std})
}

// ArcDelay returns arc's nominal annotation for transition rf.
func (e *Engine) ArcDelay(arc int32, rf int) (mean, std float64) {
	d := e.Engine.ArcDelay(arc, rf)
	return d.Mean, d.Std
}

// TopEntries returns pin p's Top-K arrival entries for (transition rf,
// scenario s), for inspection and the differential tests.
func (e *Engine) TopEntries(rf int, p int32, s int) (mean, std []float64, sps []int32) {
	return e.LaneTopEntries(rf, p, s)
}
