// Hierarchical-analysis regression harness: TestHierBenchRegression runs the
// stitched chip presets through both paths — flattened (scale + compile +
// full propagation) and hierarchical (compose the block models' top graph +
// compile + propagate) — pins the hierarchical result inside the documented
// model-error bound of flat on every preset, and writes BENCH_hier.json at
// the repo root. Accuracy is checked unconditionally; the speedup gate — the
// tentpole claim that composed analysis beats flat by an order of magnitude
// at the largest preset — is armed by INSTA_HIER_GATE=1 (ci.sh), with only a
// loose noise guard otherwise so ad-hoc runs on loaded machines stay green.
package insta

import (
	"math"
	"os"
	"runtime"
	"testing"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/hier"
)

type hierBenchRow struct {
	Preset    string  `json:"preset"`
	Scenarios int     `json:"scenarios"`
	Instances int     `json:"instances"`
	FlatPins  int     `json:"flat_pins"`
	TopPins   int     `json:"top_pins"`
	Endpoints int     `json:"endpoints"`
	ExtractNs int64   `json:"extract_ns"`
	HierNs    int64   `json:"hier_ns"`
	FlatNs    int64   `json:"flat_ns"`
	Speedup   float64 `json:"speedup"`
	MaxDelta  float64 `json:"max_delta"`
	Bound     float64 `json:"bound"`
}

type hierBenchReport struct {
	NumCPU     int            `json:"numcpu"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Rows       []hierBenchRow `json:"rows"`
}

func TestHierBenchRegression(t *testing.T) {
	gate := os.Getenv("INSTA_HIER_GATE") == "1"
	cases := []struct {
		preset  string
		scns    []batch.Scenario
		samples int
		gated   bool // the order-of-magnitude claim is pinned here
	}{
		{"chip-2x", batch.DefaultScenarios(), 5, false},
		{"chip-4x", nil, 5, false},
		{"chip-16x", nil, 3, true},
	}
	opt := core.Options{TopK: 16, Workers: 4}

	// Unique block presets compile once across all chip presets.
	states := map[string]*core.State{}
	boot := func(name string) (*core.State, error) {
		if st, ok := states[name]; ok {
			return st, nil
		}
		spec, err := bench.ChipBlockSpec(name)
		if err != nil {
			return nil, err
		}
		s, err := exp.Build(spec)
		if err != nil {
			return nil, err
		}
		states[name] = s.State
		return s.State, nil
	}

	report := hierBenchReport{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		spec, err := bench.ChipSpecByName(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		run, err := hier.BuildChip(spec, boot, tc.scns, opt, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Accuracy first, unconditionally: recovered per-endpoint slacks and
		// the fast WNS summary must land inside the model-error bound of the
		// flattened ground truth on every scenario.
		cmp, err := run.CompareFlat(opt)
		if err != nil {
			t.Fatal(err)
		}
		row := hierBenchRow{
			Preset:    tc.preset,
			Scenarios: len(cmp.Scen),
			Instances: len(spec.Blocks),
			FlatPins:  cmp.FlatPins,
			TopPins:   cmp.TopPins,
			ExtractNs: run.ExtractNs,
		}
		for _, s := range cmp.Scen {
			bound := s.Bound + 1e-6
			if s.Deltas.Max > bound {
				t.Errorf("%s/%s: recovered slack delta %.6g exceeds model bound %.6g",
					tc.preset, s.Name, s.Deltas.Max, bound)
			}
			if diff := math.Abs(s.RecWNS - s.FlatWNS); diff > bound {
				t.Errorf("%s/%s: recovered WNS %.6g vs flat %.6g exceeds bound %.6g",
					tc.preset, s.Name, s.RecWNS, s.FlatWNS, bound)
			}
			if diff := math.Abs(s.HierWNS - s.FlatWNS); diff > bound {
				t.Errorf("%s/%s: fast WNS %.6g vs flat %.6g exceeds bound %.6g",
					tc.preset, s.Name, s.HierWNS, s.FlatWNS, bound)
			}
			row.Endpoints += s.Deltas.N
			if s.Deltas.Max > row.MaxDelta {
				row.MaxDelta = s.Deltas.Max
			}
			if s.Bound > row.Bound {
				row.Bound = s.Bound
			}
		}

		// Timing: the composed path (compose + compile + propagate every
		// scenario over the top graph) against the flat path (scale + compile
		// + propagate every scenario over the full chip). Flattening itself
		// is untimed on both sides — the flat tables stand in for a loaded
		// netlist, and the models are extracted once ahead of the loop.
		flatTab, _, err := hier.ComposeFlat(spec.Name, run.States, spec.Wires)
		if err != nil {
			t.Fatal(err)
		}
		scns := hier.NormScenarios(tc.scns)
		row.HierNs, row.FlatNs = pairedMinNs(tc.samples,
			func() {
				a, err := hier.Analyze(run.Chip, opt)
				if err != nil {
					t.Fatal(err)
				}
				a.Close()
			},
			func() {
				for _, scn := range scns {
					st, err := core.Compile(batch.ScaleTables(flatTab, scn))
					if err != nil {
						t.Fatal(err)
					}
					e, err := core.NewEngineFromState(st, opt)
					if err != nil {
						t.Fatal(err)
					}
					e.Run()
					e.WNS()
					e.Close()
				}
			},
		)
		row.Speedup = float64(row.FlatNs) / float64(row.HierNs)
		t.Logf("%s: hier %.2fms vs flat %.1fms — %.0fx (flat %d pins, top %d; maxΔ %.3g, bound %.3g)",
			tc.preset, float64(row.HierNs)/1e6, float64(row.FlatNs)/1e6, row.Speedup,
			row.FlatPins, row.TopPins, row.MaxDelta, row.Bound)

		if tc.gated {
			limit := 2.0
			if gate {
				limit = 10.0
			}
			if row.Speedup < limit {
				t.Errorf("%s: composed analysis %.1fx flat, below the %.0fx floor",
					tc.preset, row.Speedup, limit)
			}
		}
		report.Rows = append(report.Rows, row)
	}

	writeBenchJSON(t, "BENCH_hier.json", report)
}
