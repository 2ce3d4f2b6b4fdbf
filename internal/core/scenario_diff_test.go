package core

// Scenario differential suite: the correctness contract of the lane axis is
// that lane s of one multi-scenario engine is *bit-identical* — queues, setup
// slacks, hold slacks, gradients — to an independent single-corner engine
// built from ScaleTables(tab, s), at any worker count. ci.sh runs this
// package under -race as well, so the claim covers concurrent chunk claiming.

import (
	"fmt"
	"math"
	"testing"

	"insta/internal/num"
)

var diffScenarios = []Scenario{
	{Name: "ss", DelayScale: 1.18, SigmaScale: 1.25, RCScale: 1.10},
	{Name: "tt", DelayScale: 1.00, SigmaScale: 1.00, RCScale: 1.00},
	{Name: "ff", DelayScale: 0.86, SigmaScale: 0.90, RCScale: 0.92},
	{Name: "hot", DelayScale: 1.31, SigmaScale: 1.07, RCScale: 0.97},
}

// TestBatchBitIdenticalToIndependentEngines runs S=4 and S=17: 17 is one
// past the kernels' lane tile of 16, so they walk each pin's fan-in a second
// time for the last lane, which no smaller scenario set reaches.
func TestBatchBitIdenticalToIndependentEngines(t *testing.T) {
	for _, scns := range [][]Scenario{diffScenarios, spreadLanes(17)} {
		t.Run(fmt.Sprintf("S%d", len(scns)), func(t *testing.T) { batchVsIndependent(t, scns) })
	}
}

func batchVsIndependent(t *testing.T, scns []Scenario) {
	tab := buildTables(t, 21)
	for _, workers := range []int{1, 2, 4} {
		opt := Options{TopK: 8, Hold: true, Workers: workers}
		be, err := NewEngineScenarios(tab, scns, opt)
		if err != nil {
			t.Fatal(err)
		}
		runScenarios(be)
		for s, scn := range scns {
			se, err := NewEngine(ScaleTables(tab, scn), opt)
			if err != nil {
				t.Fatal(err)
			}
			want := se.Run()
			wantHold := se.EvalHoldSlacks()

			got := be.LaneSlacks(s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d scenario %d ep %d: batched slack %v != independent %v",
						workers, s, i, got[i], want[i])
				}
			}
			gotHold := be.LaneHoldSlacks(s)
			for i := range wantHold {
				if gotHold[i] != wantHold[i] {
					t.Fatalf("workers=%d scenario %d ep %d: batched hold slack %v != independent %v",
						workers, s, i, gotHold[i], wantHold[i])
				}
			}
			if bw, hw := WNS(gotHold), se.HoldWNS(); bw != hw {
				t.Fatalf("workers=%d scenario %d: hold WNS %v != %v", workers, s, bw, hw)
			}
			if bw, sw := WNS(got), se.WNS(); bw != sw {
				t.Fatalf("workers=%d scenario %d: WNS %v != %v", workers, s, bw, sw)
			}
			if bt, st := TNS(got), se.TNS(); bt != st {
				t.Fatalf("workers=%d scenario %d: TNS %v != %v", workers, s, bt, st)
			}

			// Queue-level identity on every endpoint pin (the deepest state
			// the slack evaluation reads).
			for _, p := range be.Endpoints() {
				for rf := 0; rf < 2; rf++ {
					bm, bs, bsp := be.LaneTopEntries(rf, p, s)
					sm, ss, ssp := se.TopEntries(rf, p)
					for kk := range bsp {
						if bm[kk] != sm[kk] || bs[kk] != ss[kk] || bsp[kk] != ssp[kk] {
							t.Fatalf("workers=%d scenario %d pin %d rf %d slot %d: queue mismatch",
								workers, s, p, rf, kk)
						}
					}
				}
			}
			se.Close()
		}
		be.Close()
	}
}

// TestUnitScenarioMatchesReference keeps the reference-grade anchor the
// differentials above lack (they compare engine to engine): at a K large
// enough to be exact, the unit-scale lane of a multi-scenario engine agrees
// with the nominal reference timer on every endpoint — same untimed set,
// slacks within float noise.
func TestUnitScenarioMatchesReference(t *testing.T) {
	ref, tab := buildRef(t, 9)
	be, err := NewEngineScenarios(tab, DefaultScenarios(), Options{TopK: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	runScenarios(be)
	want, got := ref.EndpointSlacks(), be.LaneSlacks(UnitLane(be.Scenarios()))
	timed := 0
	for i := range want {
		if math.IsInf(want[i], 0) || math.IsInf(got[i], 0) {
			if want[i] != got[i] {
				t.Fatalf("ep %d: reference %v vs tt %v disagree on being timed", i, want[i], got[i])
			}
			continue
		}
		timed++
		if d := math.Abs(got[i] - want[i]); d > 1e-6 {
			t.Fatalf("ep %d: tt slack %v vs reference %v (|Δ| %g)", i, got[i], want[i], d)
		}
	}
	if timed == 0 {
		t.Fatal("no timed endpoints — vacuous")
	}
}

// TestBackwardLaneBitIdenticalToIndependentEngines puts the differentiable
// path on the scenario axis: the arc and arrival gradients BackwardLane(s)
// leaves behind on an S-lane engine equal, bit for bit, those of Backward on
// an independent engine over ScaleTables(tab, scn[s]) — TNS-seeded and with
// explicit endpoint weights, at one worker and at four.
func TestBackwardLaneBitIdenticalToIndependentEngines(t *testing.T) {
	tab := buildTables(t, 24)
	scns := diffScenarios[:3]
	for _, workers := range []int{1, 4} {
		// A warm tau spreads gradient over many fan-in contributions instead
		// of one argmax path per endpoint.
		opt := Options{TopK: 8, Tau: 25, Workers: workers, Grain: 8}
		be, err := NewEngineScenarios(tab, scns, opt)
		if err != nil {
			t.Fatal(err)
		}
		runScenarios(be)
		weights := make([]float64, len(be.Endpoints()))
		for i := range weights {
			weights[i] = 0.25 + float64(i%7)
		}
		for s, scn := range scns {
			se, err := NewEngine(ScaleTables(tab, scn), opt)
			if err != nil {
				t.Fatal(err)
			}
			se.Run()
			for _, w := range [][]float64{nil, weights} {
				be.BackwardLane(s, w)
				se.BackwardWeighted(w)
				nonzero := 0
				for a := int32(0); a < int32(se.NumArcs()); a++ {
					for rf := 0; rf < 2; rf++ {
						if g, want := be.ArcGradMean(a, rf), se.ArcGradMean(a, rf); g != want {
							t.Fatalf("workers=%d scenario %s arc %d rf %d: lane mean gradient %v != independent %v",
								workers, scn.Name, a, rf, g, want)
						}
						if g, want := be.ArcGradStd(a, rf), se.ArcGradStd(a, rf); g != want {
							t.Fatalf("workers=%d scenario %s arc %d rf %d: lane sigma gradient %v != independent %v",
								workers, scn.Name, a, rf, g, want)
						}
						if se.ArcGradMean(a, rf) != 0 {
							nonzero++
						}
					}
				}
				// A fast corner may have nothing violating, hence no TNS
				// gradient; the weighted pass seeds every timed endpoint.
				if nonzero == 0 && (w != nil || WNS(be.LaneSlacks(s)) < 0) {
					t.Fatalf("scenario %s: all gradients zero — test is vacuous", scn.Name)
				}
				for p := int32(0); p < int32(se.NumPins()); p++ {
					for rf := 0; rf < 2; rf++ {
						if g, want := be.ArrivalGradient(rf, p), se.ArrivalGradient(rf, p); g != want {
							t.Fatalf("workers=%d scenario %s pin %d rf %d: lane arrival gradient %v != independent %v",
								workers, scn.Name, p, rf, g, want)
						}
					}
				}
			}
			se.Close()
		}
		be.Close()
	}
}

func TestBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	tab := buildTables(t, 22)
	var ref [][]float64
	for _, workers := range []int{1, 3, 8} {
		be, err := NewEngineScenarios(tab, diffScenarios, Options{TopK: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		runScenarios(be)
		cur := make([][]float64, len(diffScenarios))
		for s := range diffScenarios {
			cur[s] = append([]float64(nil), be.LaneSlacks(s)...)
		}
		be.Close()
		if ref == nil {
			ref = cur
			continue
		}
		for s := range cur {
			for i := range cur[s] {
				if cur[s][i] != ref[s][i] {
					t.Fatalf("workers=%d scenario %d ep %d: %v != workers=1's %v",
						workers, s, i, cur[s][i], ref[s][i])
				}
			}
		}
	}
}

func TestBatchIncrementalMatchesFullPropagate(t *testing.T) {
	tab := buildTables(t, 23)
	opt := Options{TopK: 8, Hold: true, Workers: 2}
	inc, err := NewEngineScenarios(tab, diffScenarios, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	runScenarios(inc)

	// Perturb a spread of arcs in nominal units.
	touched := []int32{0, int32(inc.NumArcs() / 3), int32(inc.NumArcs() / 2), int32(inc.NumArcs() - 1)}
	for _, a := range touched {
		for rf := 0; rf < 2; rf++ {
			d := inc.ArcDelay(a, rf)
			inc.SetArcDelay(a, rf, num.Dist{Mean: d.Mean*1.2 + 1, Std: d.Std * 1.1})
		}
	}
	inc.PropagateIncremental(touched)
	inc.RefreshSlacks()
	inc.RefreshHoldSlacks()

	full, err := NewEngineScenarios(tab, diffScenarios, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	for _, a := range touched {
		for rf := 0; rf < 2; rf++ {
			full.SetArcDelay(a, rf, inc.ArcDelay(a, rf))
		}
	}
	runScenarios(full)

	for s := range diffScenarios {
		gi, gf := inc.LaneSlacks(s), full.LaneSlacks(s)
		for i := range gf {
			if gi[i] != gf[i] {
				t.Fatalf("scenario %d ep %d: incremental %v != full %v", s, i, gi[i], gf[i])
			}
		}
		hi, hf := inc.LaneHoldSlacks(s), full.LaneHoldSlacks(s)
		for i := range hf {
			if hi[i] != hf[i] {
				t.Fatalf("scenario %d ep %d: incremental hold %v != full %v", s, i, hi[i], hf[i])
			}
		}
	}
}

// TestOverlayMatchesIndependentScaledOverlays extends the lane-independence
// claim to what-if evaluation: lane s of one overlay over the multi-scenario
// base equals a fresh single-corner engine over the scaled tables carrying
// the same ECO in that scenario's units.
func TestOverlayMatchesIndependentScaledOverlays(t *testing.T) {
	tab := buildTables(t, 32)
	opt := Options{TopK: 8, Workers: 2}
	e, err := NewEngineScenarios(tab, diffScenarios, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runScenarios(e)

	arcs := pickECOArcs(e, 4)
	ov := NewOverlay(e)
	for _, a := range arcs {
		for rf := 0; rf < 2; rf++ {
			d := e.ArcDelay(a, rf)
			ov.SetArcDelay(a, rf, num.Dist{Mean: d.Mean*1.3 + 1, Std: d.Std})
		}
	}
	ov.Propagate()

	// Per scenario, a fresh single-corner engine over the scaled tables with
	// the same ECO applied (in that scenario's units) must agree bit-for-bit.
	for s, scn := range diffScenarios {
		se, err := NewEngine(ScaleTables(tab, scn), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arcs {
			ms := scn.DelayScale
			if e.ArcIsNet(a) {
				ms = scn.RCScale
			}
			for rf := 0; rf < 2; rf++ {
				d := ov.ArcDelay(a, rf)
				d.Mean *= ms
				d.Std *= scn.SigmaScale
				se.SetArcDelay(a, rf, d)
			}
		}
		want := se.Run()
		for i := range want {
			if got := ov.LaneSlack(s, int32(i)); got != want[i] {
				t.Fatalf("scenario %s ep %d: overlay %v != independent %v", scn.Name, i, got, want[i])
			}
		}
		se.Close()
	}
}
