// Package corners provides multi-corner analysis as a thin wrapper over the
// scenario-batched engine in internal/batch: each PVT corner is expressed as
// derate factors over the nominal extraction (the industrial
// set_timing_derate form), and one batched propagation carries every corner
// through the shared graph in a single traversal. One nominal reference
// engine is kept for reporting and validation; there are no per-corner
// engines to build or leak — the old per-corner construction rebuilt the
// reference timer, extraction, and INSTA instance S times over and never
// released the worker pools.
//
// The analysis path derates extracted annotations directly (see
// batch.ScaleTables for the exact arithmetic); the per-corner library and
// parasitics re-characterization the old construction used lives on only as
// the baseline of bench_batch_test.go.
package corners

import (
	"fmt"

	"insta/internal/batch"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/rc"
	"insta/internal/refsta"
	"insta/internal/sdc"
)

// Corner is one PVT corner expressed as scale factors over the nominal
// characterization.
type Corner struct {
	Name       string
	DelayScale float64 // cell delay and output-slew scaling
	SigmaScale float64 // POCV sigma scaling
	RCScale    float64 // interconnect R and C scaling
}

// DefaultCorners returns the usual slow/typical/fast trio.
func DefaultCorners() []Corner {
	return []Corner{
		{Name: "ss", DelayScale: 1.18, SigmaScale: 1.25, RCScale: 1.10},
		{Name: "tt", DelayScale: 1.00, SigmaScale: 1.00, RCScale: 1.00},
		{Name: "ff", DelayScale: 0.86, SigmaScale: 0.90, RCScale: 0.92},
	}
}

// Scenario converts the corner to the batched engine's scenario form.
func (c Corner) Scenario() batch.Scenario {
	return batch.Scenario{
		Name:       c.Name,
		DelayScale: c.DelayScale,
		SigmaScale: c.SigmaScale,
		RCScale:    c.RCScale,
	}
}

// Scenarios converts a corner list to the batched engine's scenario form.
func Scenarios(crns []Corner) []batch.Scenario {
	out := make([]batch.Scenario, len(crns))
	for i, c := range crns {
		out[i] = c.Scenario()
	}
	return out
}

// FromScenarios converts parsed scenarios back to corners (for callers that
// take a -corners flag via batch.ParseScenarios but report through this
// package).
func FromScenarios(scns []batch.Scenario) []Corner {
	out := make([]Corner, len(scns))
	for i, s := range scns {
		out[i] = Corner{Name: s.Name, DelayScale: s.DelayScale, SigmaScale: s.SigmaScale, RCScale: s.RCScale}
	}
	return out
}

// Analysis is the multi-corner view over one design: a nominal reference
// engine plus one scenario-batched INSTA engine holding every corner.
type Analysis struct {
	Corners []Corner
	Ref     *refsta.Engine // nominal (tt-unit) reference timer
	Tables  *circuitops.Tables
	Eng     *batch.Engine // batched engine, all corners in one traversal
}

// New builds the nominal reference once, extracts its tables, and stands up
// one batched engine spanning every corner. The result is fully propagated
// and slack-evaluated. Callers own the returned Analysis and must Close it
// to release the engine's worker pool.
func New(d *netlist.Design, lib *liberty.Library, con *sdc.Constraints, par *rc.Parasitics, crns []Corner, opt core.Options) (*Analysis, error) {
	if len(crns) == 0 {
		return nil, fmt.Errorf("corners: no corners given")
	}
	ref, err := refsta.New(d, lib, con, par, refsta.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("corners: %w", err)
	}
	tab := circuitops.Extract(ref)
	eng, err := batch.New(tab, Scenarios(crns), opt)
	if err != nil {
		return nil, fmt.Errorf("corners: %w", err)
	}
	eng.Run()
	return &Analysis{Corners: append([]Corner(nil), crns...), Ref: ref, Tables: tab, Eng: eng}, nil
}

// FromState stands up a multi-corner analysis over an already compiled
// state (internal/snap warm start): no reference engine is built, so Ref and
// Tables are nil and reference-grade reporting is unavailable, but the
// batched engine is fully propagated and slack-evaluated like New's.
func FromState(st *core.State, crns []Corner, opt core.Options) (*Analysis, error) {
	if len(crns) == 0 {
		return nil, fmt.Errorf("corners: no corners given")
	}
	eng, err := batch.NewFromState(st, Scenarios(crns), opt)
	if err != nil {
		return nil, fmt.Errorf("corners: %w", err)
	}
	eng.Run()
	return &Analysis{Corners: append([]Corner(nil), crns...), Eng: eng}, nil
}

// Close releases the batched engine's worker pool. Safe to call once; the
// Analysis must not be used afterwards.
func (a *Analysis) Close() {
	if a.Eng != nil {
		a.Eng.Close()
		a.Eng = nil
	}
}

// CornerIndex resolves a corner name to its scenario index, -1 if absent.
func (a *Analysis) CornerIndex(name string) int { return a.Eng.ScenarioIndex(name) }

// Slacks returns a copy of the named corner's per-endpoint slacks.
func (a *Analysis) Slacks(name string) ([]float64, error) {
	s := a.Eng.ScenarioIndex(name)
	if s < 0 {
		return nil, fmt.Errorf("corners: unknown corner %q", name)
	}
	return a.Eng.Slacks(s), nil
}

// MergedSlacks returns the per-endpoint worst slack across corners.
func (a *Analysis) MergedSlacks() []float64 {
	return a.Eng.Merged().Slacks
}

// WorstCornerPerEndpoint reports which corner sets each endpoint's merged
// slack ("" for untimed endpoints).
func (a *Analysis) WorstCornerPerEndpoint() []string {
	v := a.Eng.Merged()
	out := make([]string, len(v.WorstOf))
	scns := a.Eng.Scenarios()
	for i := range v.WorstOf {
		out[i] = v.WorstName(scns, i)
	}
	return out
}

// WNS returns the merged worst negative slack.
func (a *Analysis) WNS() float64 { return a.Eng.Merged().WNS }

// TNS returns the merged total negative slack (per-endpoint worst corner).
func (a *Analysis) TNS() float64 { return a.Eng.Merged().TNS }
