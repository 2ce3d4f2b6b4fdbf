package batch

import (
	"math"

	"insta/internal/core"
)

// Slacks returns a copy of scenario s's endpoint slacks from the last
// evaluation.
func (e *Engine) Slacks(s int) []float64 { return e.SlacksInto(s, nil) }

// SlacksInto copies scenario s's endpoint slacks into dst, growing it only
// when too small, and returns the filled slice — the allocation-free serving
// read (pass dst[:0]-style reusable buffers).
func (e *Engine) SlacksInto(s int, dst []float64) []float64 {
	return append(dst[:0], e.LaneSlacks(s)...)
}

// MergedSlacksInto writes the per-endpoint worst slack across scenarios into
// dst, growing it only when too small — the allocation-free form of
// Merged().Slacks for serving reads that need no per-scenario attribution.
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

// WNS returns scenario s's worst negative slack (0 when nothing violates).
func (e *Engine) WNS(s int) float64 { return core.WNS(e.LaneSlacks(s)) }

// TNS returns scenario s's total negative slack.
func (e *Engine) TNS(s int) float64 { return core.TNS(e.LaneSlacks(s)) }

// NumViolations counts scenario s's endpoints with negative slack.
func (e *Engine) NumViolations(s int) int { return core.Violations(e.LaneSlacks(s)) }

// HoldSlacks returns a copy of scenario s's hold slacks.
func (e *Engine) HoldSlacks(s int) []float64 {
	return append([]float64(nil), e.LaneHoldSlacks(s)...)
}

// HoldWNS returns scenario s's worst negative hold slack.
func (e *Engine) HoldWNS(s int) float64 { return core.WNS(e.LaneHoldSlacks(s)) }

// HoldTNS returns scenario s's total negative hold slack.
func (e *Engine) HoldTNS(s int) float64 { return core.TNS(e.LaneHoldSlacks(s)) }

// ScenarioMetrics is one scenario's summary line in a merged view.
type ScenarioMetrics struct {
	Name       string
	WNS, TNS   float64
	Violations int
}

// MergedView is the multi-scenario signoff picture: the worst slack per
// endpoint across scenarios, which scenario set it, and WNS/TNS both per
// scenario and merged (per-endpoint worst corner).
type MergedView struct {
	Slacks      []float64 // per endpoint: min over scenarios
	WorstOf     []int     // per endpoint: scenario index of the minimum, -1 if untimed everywhere
	WNS, TNS    float64   // over the merged slacks
	Violations  int
	PerScenario []ScenarioMetrics
}

// WorstName returns the scenario name behind endpoint i's merged slack, or
// "" when the endpoint is untimed in every scenario.
func (v *MergedView) WorstName(names []Scenario, i int) string {
	if v.WorstOf[i] < 0 {
		return ""
	}
	return names[v.WorstOf[i]].Name
}

// Merged builds the merged view from the last evaluation. Ties between
// scenarios resolve to the lowest scenario index, so the view is
// deterministic for any worker count.
func (e *Engine) Merged() *MergedView {
	nEP := len(e.Endpoints())
	S := len(e.scns)
	v := &MergedView{
		Slacks:  make([]float64, nEP),
		WorstOf: make([]int, nEP),
	}
	for i := 0; i < nEP; i++ {
		best := math.Inf(1)
		worst := -1
		for s := 0; s < S; s++ {
			if sl := e.LaneSlacks(s)[i]; sl < best {
				best = sl
				worst = s
			}
		}
		v.Slacks[i] = best
		v.WorstOf[i] = worst
		if best < 0 {
			v.Violations++
			v.TNS += best
			if best < v.WNS {
				v.WNS = best
			}
		}
	}
	v.PerScenario = make([]ScenarioMetrics, S)
	for s := 0; s < S; s++ {
		v.PerScenario[s] = ScenarioMetrics{
			Name:       e.scns[s].Name,
			WNS:        e.WNS(s),
			TNS:        e.TNS(s),
			Violations: e.NumViolations(s),
		}
	}
	return v
}
