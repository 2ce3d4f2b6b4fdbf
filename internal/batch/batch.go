// Package batch is a forwarder shim over core's scenario lanes, kept only as
// long as the benchmark harness calls it with method sets that conflict with
// core's (WNS(s)/TNS(s) per scenario, a four-argument SetArcDelay, Run
// and EvalSlacks used as func()). Nothing else may import it but
// server.Options.Batch and snap.Snapshot.Batch, kept on the same grounds; all
// three go when the harness calls core (DESIGN.md §9).
package batch

import (
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
)

type Scenario = core.Scenario

const KernelForward = core.KernelForward

func ScaleTables(t *circuitops.Tables, scn Scenario) *circuitops.Tables {
	return core.ScaleTables(t, scn)
}

// Engine is a core engine with one lane per scenario.
type Engine struct{ *core.Engine }

// wrap forwards a constructor's result; on an error the engine is unusable.
func wrap(e *core.Engine, err error) (*Engine, error) { return &Engine{e}, err }

func New(t *circuitops.Tables, scns []Scenario, opt core.Options) (*Engine, error) {
	return wrap(core.NewEngineScenarios(t, scns, opt))
}

func NewFromState(st *core.State, scns []Scenario, opt core.Options) (*Engine, error) {
	return wrap(core.NewEngineLanes(st, scns, opt))
}

// Run propagates and evaluates setup slacks in every lane.
func (e *Engine) Run()              { e.Propagate(); e.RefreshSlacks() }
func (e *Engine) EvalSlacks()       { e.RefreshSlacks() }
func (e *Engine) WNS(s int) float64 { return core.WNS(e.LaneSlacks(s)) }
func (e *Engine) TNS(s int) float64 { return core.TNS(e.LaneSlacks(s)) }

// Overlay is a core overlay taking nominal delays as mean and sigma.
type Overlay struct{ *core.Overlay }

func NewOverlay(e *Engine) *Overlay { return &Overlay{core.NewOverlay(e.Engine)} }

func (o *Overlay) SetArcDelay(arc int32, rf int, mean, std float64) {
	o.Overlay.SetArcDelay(arc, rf, num.Dist{Mean: mean, Std: std})
}
