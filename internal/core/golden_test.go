package core_test

// Cross-commit golden digests. Every other bit-identity suite in the tree
// compares two things built from the same checkout (engine vs engine, warm vs
// cold, preview vs commit), so a change that moves both sides together passes
// them all. This file pins FNV-1a digests of the engine's actual numbers —
// setup slacks, WNS/TNS, hold slacks, arc gradients, one overlay preview +
// commit, and a three-scenario batched run (per scenario + merged) — on the
// bench block presets at K ∈ {1, 8, 32}. A refactor of the propagation
// kernels must leave this file untouched and passing.
//
// The test lives in the external test package: it drives the engine through
// its exported API only.

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
	"insta/internal/refsta"
)

var goldenDigests = map[string]map[int]uint64{
	"block-1": {1: 0x55f8f9fb72e40f40, 8: 0xc7b91fbc6e4facff, 32: 0x2975fc41fa294792},
	"block-2": {1: 0x9f25315afbd62f38, 8: 0xfb465a09bf384104, 32: 0xb082c40eb5bcba47},
	"block-3": {1: 0xdcfbae2d9f1fa8d5, 8: 0x7f12464ed10a3db6, 32: 0x7f12464ed10a3db6},
	"block-4": {1: 0x01106f3cb4611671, 8: 0x6fff745740b6b616, 32: 0x5af1cfbb158fa81f},
	"block-5": {1: 0x00a77eb5ab0e4dc4, 8: 0x3d428e45ddb52962, 32: 0x7e51d8d1c5f99789},
}

type digest struct{ h hash.Hash64 }

func (d digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d digest) floats(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func goldenDigest(t *testing.T, tab *circuitops.Tables, k int) uint64 {
	t.Helper()
	d := digest{fnv.New64a()}
	opt := core.Options{TopK: k, Hold: true, Tau: 0.01, Workers: 2}

	// Single-corner engine: full run, hold, gradients.
	e, err := core.NewEngine(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	d.floats(e.Slacks()...)
	d.floats(e.WNS(), e.TNS())
	d.floats(e.EvalHoldSlacks()...)
	d.floats(e.HoldWNS(), e.HoldTNS())
	e.Backward()
	for a := int32(0); a < int32(e.NumArcs()); a++ {
		for rf := 0; rf < 2; rf++ {
			d.floats(e.ArcGradMean(a, rf), e.ArcGradStd(a, rf))
		}
	}

	// One overlay preview over 16 arcs spread across the arc table, then its
	// commit into the base.
	ov := core.NewOverlay(e)
	step := int32(e.NumArcs() / 16)
	for i := int32(0); i < 16; i++ {
		arc := i*step + step/2
		for rf := 0; rf < 2; rf++ {
			was := e.ArcDelay(arc, rf)
			ov.SetArcDelay(arc, rf, num.Dist{Mean: was.Mean*1.2 + 1, Std: was.Std * 1.1})
		}
	}
	ov.Propagate()
	for i := range e.Endpoints() {
		d.floats(ov.Slack(int32(i)))
	}
	d.floats(ov.WNS(), ov.TNS())
	for _, ep := range ov.ChangedEndpoints() {
		d.u64(uint64(ep))
	}
	ov.Commit()
	d.floats(e.Slacks()...)
	d.floats(e.WNS(), e.TNS())
	d.floats(e.EvalHoldSlacks()...)

	// Three scenarios through the batched engine: per scenario and merged.
	scns := core.DefaultScenarios()
	be, err := core.NewEngineScenarios(tab, scns, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.Run()
	be.RefreshHoldSlacks()
	for s := range scns {
		d.floats(be.LaneSlacks(s)...)
		d.floats(core.WNS(be.LaneSlacks(s)), core.TNS(be.LaneSlacks(s)))
		d.floats(be.LaneHoldSlacks(s)...)
		d.floats(core.WNS(be.LaneHoldSlacks(s)), core.TNS(be.LaneHoldSlacks(s)))
	}
	v := be.Merged()
	d.floats(v.Slacks...)
	d.floats(v.WNS, v.TNS)
	for _, w := range v.WorstOf {
		d.u64(uint64(int64(w)))
	}
	return d.h.Sum64()
}

func TestGoldenDigests(t *testing.T) {
	presets := bench.BlockNames()
	if testing.Short() {
		presets = []string{"block-5"} // the shallowest block; -race runs stay short
	}
	for _, name := range presets {
		spec, err := bench.BlockSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tab := circuitops.Extract(ref)
		for _, k := range []int{1, 8, 32} {
			if got, want := goldenDigest(t, tab, k), goldenDigests[name][k]; got != want {
				t.Errorf("%s K=%d: digest %#016x, golden %#016x", name, k, got, want)
			}
		}
	}
}
