package main

import (
	"fmt"
	"math"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/refsta"
)

// fingerprint is what a pinned design must measure to before any workload
// runs on it. The zero value means "not pinned" (the smoke test's small spec).
type fingerprint struct {
	pins, arcs, levels, endpoints int
	arcMeanSum, refWNS, refTNS    float64
}

// design is one benchmark input: a generator spec copied here as a literal,
// so an edit to internal/bench's presets cannot silently change a workload,
// and the fingerprint the generated design must reproduce.
type design struct {
	spec bench.Spec
	fp   fingerprint
}

func blockSpec(name string, seed int64, groups, ffs, layers, width int, period float64) bench.Spec {
	return bench.Spec{
		Name: name, Seed: seed, Tech: liberty.TechN3(),
		Groups: groups, FFsPerGroup: ffs, Layers: layers, Width: width,
		CrossFrac: 0.025, NumPIs: 64, NumPOs: 64,
		Period: period, Uncertainty: 10, VioFrac: 0.05,
		FalsePaths: 140, Multicycles: 90, Die: 250,
	}
}

// The three pinned designs: block-1 (largest, the paper's Table I row),
// block-3 (deepest) and block-5 (shallowest, the serving preset).
var (
	designFull = design{
		spec: blockSpec("block-1", 101, 16, 96, 25, 90, 3000),
		fp:   fingerprint{106838, 135340, 53, 1600, 4.591725078320198e+06, -68.04814262042032, -1663.359344043655},
	}
	designCorners = design{
		spec: blockSpec("block-3", 103, 10, 96, 30, 55, 3400),
		fp:   fingerprint{49810, 62588, 63, 1024, 2.1234133766435077e+06, -46.901760256629586, -949.0768664285315},
	}
	designServe = design{
		spec: blockSpec("block-5", 105, 8, 120, 15, 75, 1800),
		fp:   fingerprint{28550, 35068, 33, 1024, 1.1889608234310332e+06, -86.38887608232756, -1425.694172114241},
	}
)

// scenarios8 is the pinned corner set of corners_s8: the default trio plus
// five derates in the same PVT envelope. The first three are also the
// serving daemon's corners.
var scenarios8 = []batch.Scenario{
	{Name: "ss", DelayScale: 1.18, SigmaScale: 1.25, RCScale: 1.10},
	{Name: "tt", DelayScale: 1.00, SigmaScale: 1.00, RCScale: 1.00},
	{Name: "ff", DelayScale: 0.86, SigmaScale: 0.90, RCScale: 0.92},
	{Name: "hot", DelayScale: 1.31, SigmaScale: 1.07, RCScale: 0.97},
	{Name: "cold", DelayScale: 0.92, SigmaScale: 1.12, RCScale: 1.04},
	{Name: "ssg", DelayScale: 1.26, SigmaScale: 1.35, RCScale: 1.15},
	{Name: "ffg", DelayScale: 0.80, SigmaScale: 0.85, RCScale: 0.88},
	{Name: "wc_rc", DelayScale: 1.05, SigmaScale: 1.00, RCScale: 1.30},
}

// closeTo compares floats that are deterministic on one architecture but may
// differ in the last bits on another (fused multiply-add).
func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// measure fingerprints a built design.
func measure(ref *refsta.Engine, tab *circuitops.Tables, st *core.State) fingerprint {
	fp := fingerprint{
		pins: tab.NumPins, arcs: len(tab.Arcs), levels: st.NumLevels, endpoints: len(tab.EPs),
		refWNS: ref.WNS(), refTNS: ref.TNS(),
	}
	for i := range tab.Arcs {
		fp.arcMeanSum += tab.Arcs[i].MeanRise + tab.Arcs[i].MeanFall
	}
	return fp
}

// verify refuses a design that no longer measures to its pinned fingerprint.
func (d design) verify(got fingerprint) error {
	want := d.fp
	if want == (fingerprint{}) {
		return nil
	}
	if got.pins != want.pins || got.arcs != want.arcs || got.levels != want.levels ||
		got.endpoints != want.endpoints || !closeTo(got.arcMeanSum, want.arcMeanSum) ||
		!closeTo(got.refWNS, want.refWNS) || !closeTo(got.refTNS, want.refTNS) {
		return fmt.Errorf("design %s no longer matches its pinned fingerprint:\n got  %+v\n want %+v\n"+
			"(internal/bench or refsta changed the workload; re-pin deliberately in benchmark/inputs.go)",
			d.spec.Name, got, want)
	}
	return nil
}

// built is a design carried through the cold pipeline once, the common
// starting point of every workload's input preparation.
type built struct {
	ref *refsta.Engine
	tab *circuitops.Tables
	st  *core.State
}

// build generates the design and runs refsta → extract → compile on it,
// checking the fingerprint. This is input preparation, never timed as set-up.
func (d design) build() (*built, error) {
	b, err := bench.Generate(d.spec)
	if err != nil {
		return nil, err
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tab := circuitops.Extract(ref)
	st, err := core.Compile(tab)
	if err != nil {
		return nil, err
	}
	if err := d.verify(measure(ref, tab, st)); err != nil {
		return nil, err
	}
	return &built{ref: ref, tab: tab, st: st}, nil
}
