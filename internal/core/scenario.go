package core

// The scenario model over the engine's lane axis: named corners/modes, their
// parsing, and the merged (worst-corner-per-endpoint) views.
//
// The model is the industrial derate form (set_timing_derate): scenario s sees
// cell-arc delays scaled by DelayScale, net-arc delays by RCScale and all
// sigmas by SigmaScale, while launch arrivals, required times and the clock
// network are shared. ScaleTables materializes the same model as a standalone
// extraction, and the differential tests assert that every lane of a
// multi-scenario engine is bit-identical to an independent single-lane engine
// built from those scaled tables — at any worker count.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"insta/internal/circuitops"
)

// Scenario is one lane of an engine: a timing scenario (corner/mode) given as
// the derate factors the kernels apply to the nominal arc annotations. The
// paper's single-corner engine has one unnamed unit-scale scenario; an engine
// built from named scenarios is a multi-corner one.
type Scenario struct {
	Name       string
	DelayScale float64 // cell-arc delay scaling
	SigmaScale float64 // POCV sigma scaling (cell and net arcs)
	RCScale    float64 // net-arc (interconnect) delay scaling
}

// Scale returns the scenario's derate factors for an arc of the given kind
// (0 = cell, 1 = net): the mean factor — DelayScale for a cell arc, RCScale
// for a net arc — and the sigma factor, SigmaScale for both. It is the derate
// model's one statement: ScaleTables, the engine's lane factors, hier's
// extraction cone and its composed top-level wires all read it.
func (s Scenario) Scale(kind uint8) (mean, std float64) {
	if kind == 1 {
		return s.RCScale, s.SigmaScale
	}
	return s.DelayScale, s.SigmaScale
}

// unitLane is the scenario list of the paper's single-corner engine.
var unitLane = []Scenario{{DelayScale: 1, SigmaScale: 1, RCScale: 1}}

// validScale reports whether v is a usable derate factor: finite and
// positive (NaN fails the comparison).
func validScale(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

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
// unique, and neither "" (the nominal lane) nor "merged" (the worst-corner
// row), which a server reserves; scales must be finite and positive.
func ParseScenarios(spec string) ([]Scenario, error) {
	presets := make(map[string]Scenario)
	for _, s := range DefaultScenarios() {
		presets[s.Name] = s
	}
	seen := make(map[string]bool)
	var out []Scenario
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		scn, preset := presets[field]
		if name, scales, custom := strings.Cut(field, ":"); custom {
			parts := strings.Split(scales, "/")
			if len(parts) != 3 {
				return nil, fmt.Errorf("core: scenario %q: want name:delay/sigma/rc", field)
			}
			vals := make([]float64, 3)
			for i, p := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil || !validScale(v) {
					return nil, fmt.Errorf("core: scenario %q: bad scale %q (want a finite number > 0)", field, p)
				}
				vals[i] = v
			}
			scn = Scenario{Name: name, DelayScale: vals[0], SigmaScale: vals[1], RCScale: vals[2]}
		} else if !preset {
			return nil, fmt.Errorf("core: unknown scenario %q (defaults: ss, tt, ff; custom: name:delay/sigma/rc)", field)
		}
		switch {
		case scn.Name == "" || scn.Name == "merged":
			return nil, fmt.Errorf("core: scenario name %q is reserved (\"\" is the nominal lane, \"merged\" the worst-corner row)", scn.Name)
		case seen[scn.Name]:
			return nil, fmt.Errorf("core: duplicate scenario %q", scn.Name)
		}
		seen[scn.Name] = true
		out = append(out, scn)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: empty scenario spec")
	}
	return out, nil
}

// UnitLane returns the index of the first scenario whose three factors are
// all exactly 1 — the lane that holds, bit for bit, what a single-lane engine
// over the nominal tables computes (x*1.0 == x) — or -1.
func UnitLane(scns []Scenario) int {
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
	if UnitLane(scns) >= 0 {
		return scns, nil
	}
	for _, s := range scns {
		if s.Name == "tt" {
			return nil, fmt.Errorf("core: scenario tt is derated and the list has no unit-scale (1/1/1) scenario; name one")
		}
	}
	return append([]Scenario{{Name: "tt", DelayScale: 1, SigmaScale: 1, RCScale: 1}}, scns...), nil
}

// ScaleTables returns a copy of t with every arc annotation scaled for one
// scenario — the standalone-extraction form of the derate model, used to
// build the independent single-corner engines the differential tests compare
// against. The multiplications here are the exact operations the kernels
// perform inline per lane, so the results are bit-identical.
func ScaleTables(t *circuitops.Tables, scn Scenario) *circuitops.Tables {
	out := *t
	out.Arcs = make([]circuitops.ArcRow, len(t.Arcs))
	for i, a := range t.Arcs {
		ms, ss := scn.Scale(a.Kind)
		a.MeanRise *= ms
		a.MeanFall *= ms
		a.StdRise *= ss
		a.StdFall *= ss
		out.Arcs[i] = a
	}
	return &out
}

// Scenarios returns the engine's scenario list in lane order. The slice is
// the engine's own; callers must not mutate it.
func (e *Engine) Scenarios() []Scenario { return e.scns }

// MergedView is the multi-scenario signoff picture of the last evaluation:
// the worst slack per endpoint across lanes, which lane set it, and WNS/TNS
// over those merged slacks.
type MergedView struct {
	Slacks     []float64 // per endpoint: min over lanes
	WorstOf    []int     // per endpoint: lane of the minimum, -1 if untimed in every lane
	WNS, TNS   float64
	Violations int
}

// Merged builds the merged view from the last evaluation. Ties between lanes
// resolve to the lowest lane index, so the view is deterministic for any
// worker count.
func (e *Engine) Merged() *MergedView {
	v := &MergedView{Slacks: e.MergedSlacksInto(nil), WorstOf: make([]int, len(e.st.EpPin))}
	for i, best := range v.Slacks {
		v.WorstOf[i] = -1
		for s := 0; s < len(e.scns) && !math.IsInf(best, 1); s++ {
			if e.LaneSlacks(s)[i] == best {
				v.WorstOf[i] = s
				break
			}
		}
	}
	v.WNS, v.TNS, v.Violations = WNS(v.Slacks), TNS(v.Slacks), Violations(v.Slacks)
	return v
}

// MergedSlacksInto writes the per-endpoint worst slack across lanes into dst,
// growing it only when too small, and returns the filled slice — the
// allocation-free serving read.
func (e *Engine) MergedSlacksInto(dst []float64) []float64 {
	dst = append(dst[:0], e.LaneSlacks(0)...)
	for s := 1; s < len(e.scns); s++ {
		for i, sl := range e.LaneSlacks(s) {
			if sl < dst[i] {
				dst[i] = sl
			}
		}
	}
	return dst
}

// MergedSlack returns endpoint i's worst slack across lanes as seen through
// the overlay.
func (o *Overlay) MergedSlack(i int32) float64 {
	best := math.Inf(1)
	for s := range o.e.scns {
		if sl := o.LaneSlack(s, i); sl < best {
			best = sl
		}
	}
	return best
}

// MergedWNS returns the merged (per-endpoint worst lane) WNS under the
// overlay, as Summarize folds it.
func (o *Overlay) MergedWNS() float64 {
	_, _, wns, _ := o.figures(0)
	return wns
}
