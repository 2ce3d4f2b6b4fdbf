// Multi-corner bench regression harness: TestBatchBenchRegression times the
// scenario-batched subsystem (internal/batch) against the legacy per-corner
// loop it replaced — per corner: scale the library and parasitics, rebuild
// the reference timer, re-extract, build an engine, propagate — and writes
// BENCH_batch.json at the repo root. The batched path builds the nominal
// reference once and carries every corner through one traversal, so the
// speedup is an amortization ledger, not a parallelism artifact (it holds at
// Workers=1 on a single-CPU machine). The S=3 subsystem speedup is gated at
// >= 2x (the PR 3 acceptance bar); the engine-only and steady-state ratios
// are recorded ungated as diagnostics.
package insta

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/liberty"
	"insta/internal/rc"
	"insta/internal/refsta"
)

// batchBenchRow is one (preset, S) row in BENCH_batch.json.
type batchBenchRow struct {
	Name      string `json:"name"`
	Pins      int    `json:"pins"`
	Endpoints int    `json:"endpoints"`
	Scenarios int    `json:"scenarios"`
	TopK      int    `json:"top_k"`

	// Full-subsystem wall time: everything a caller pays from "I have a
	// design" to "I have slacks in every corner".
	SubsystemLoopNs    int64   `json:"subsystem_loop_ns"`
	SubsystemBatchedNs int64   `json:"subsystem_batched_ns"`
	SubsystemSpeedup   float64 `json:"subsystem_speedup"`

	// Engine-only (construction + one Run over pre-extracted tables).
	EngineLoopNs    int64   `json:"engine_loop_ns"`
	EngineBatchedNs int64   `json:"engine_batched_ns"`
	EngineSpeedup   float64 `json:"engine_speedup"`

	// Steady-state batched re-evaluation throughput.
	RunNs           int64   `json:"run_ns"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
}

type batchBenchReport struct {
	NumCPU     int             `json:"numcpu"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Workers    int             `json:"workers"`
	Rows       []batchBenchRow `json:"rows"`
}

// medianNs reports the median wall time of fn over n runs.
func medianNs(n int, fn func()) int64 {
	ns := make([]int64, n)
	for i := range ns {
		start := time.Now()
		fn()
		ns[i] = time.Since(start).Nanoseconds()
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[n/2]
}

// pairedMinNs times two alternatives interleaved — a[0], b[0], a[1], b[1], …
// — with a forced GC before every sample, and reports each side's minimum.
// Interleaving exposes both sides to the same background state (GC pacing,
// page cache, suite load on a 1-CPU machine) and min-of-n discards the
// samples an interruption landed on; back-to-back medians were observed to
// swing the ratio by 2x across otherwise identical runs.
func pairedMinNs(n int, a, b func()) (minA, minB int64) {
	one := func(fn func()) int64 {
		runtime.GC()
		start := time.Now()
		fn()
		return time.Since(start).Nanoseconds()
	}
	minA, minB = one(a), one(b)
	for i := 1; i < n; i++ {
		if ns := one(a); ns < minA {
			minA = ns
		}
		if ns := one(b); ns < minB {
			minB = ns
		}
	}
	return minA, minB
}

// eightScenarios extends the default trio to S=8 with derates in the same
// plausible PVT envelope.
func eightScenarios(t *testing.T) []batch.Scenario {
	extra, err := batch.ParseScenarios(
		"hot:1.31/1.07/0.97,cold:0.92/1.12/1.04,ssg:1.26/1.35/1.15,ffg:0.80/0.85/0.88,wc_rc:1.05/1.00/1.30")
	if err != nil {
		t.Fatal(err)
	}
	return append(batch.DefaultScenarios(), extra...)
}

func TestBatchBenchRegression(t *testing.T) {
	const preset = "block-1"
	const topK = 8
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := s.B
	opt := core.Options{TopK: topK, Workers: 1}
	report := batchBenchReport{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: 1}

	cases := []struct {
		scns    []batch.Scenario
		samples int // subsystem timing is seconds-scale; S=8 gets one sample
	}{
		{batch.DefaultScenarios(), 3},
		{eightScenarios(t), 1},
	}
	for _, tc := range cases {
		row := batchBenchRow{
			Name: preset, Pins: b.D.NumPins(), Scenarios: len(tc.scns), TopK: topK,
		}

		// Full-subsystem comparison, interleaved. Loop side is what the old
		// per-corner construction paid; batched side builds the nominal
		// reference once and one engine for all S.
		row.SubsystemLoopNs, row.SubsystemBatchedNs = pairedMinNs(tc.samples,
			func() {
				for _, c := range tc.scns {
					ref, err := refsta.New(b.D, scaleLibrary(b.Lib, c), b.Con,
						scaleParasitics(b.Par, c.RCScale), refsta.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					e, err := core.NewEngine(circuitops.Extract(ref), opt)
					if err != nil {
						t.Fatal(err)
					}
					e.Run()
					e.Close()
				}
			},
			func() {
				ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				be, err := batch.New(circuitops.Extract(ref), tc.scns, opt)
				if err != nil {
					t.Fatal(err)
				}
				be.Run()
				be.Close()
			})
		row.SubsystemSpeedup = float64(row.SubsystemLoopNs) / float64(row.SubsystemBatchedNs)

		// Engine-only comparison (construction + one Run over pre-extracted
		// tables), interleaved the same way.
		row.EngineLoopNs, row.EngineBatchedNs = pairedMinNs(tc.samples,
			func() {
				for _, scn := range tc.scns {
					e, err := core.NewEngine(batch.ScaleTables(s.Tab, scn), opt)
					if err != nil {
						t.Fatal(err)
					}
					e.Run()
					e.Close()
				}
			},
			func() {
				e2, err := batch.New(s.Tab, tc.scns, opt)
				if err != nil {
					t.Fatal(err)
				}
				e2.Run()
				e2.Close()
			})
		row.EngineSpeedup = float64(row.EngineLoopNs) / float64(row.EngineBatchedNs)

		be, err := batch.New(s.Tab, tc.scns, opt)
		if err != nil {
			t.Fatal(err)
		}
		row.Endpoints = len(be.Endpoints())
		be.Run() // warm queues before the steady-state samples

		// Steady-state batched throughput (warm queues).
		row.RunNs = medianNs(3, func() { be.Run() })
		row.ScenariosPerSec = float64(len(tc.scns)) / (float64(row.RunNs) / 1e9)
		be.Close()

		t.Logf("%s S=%d: subsystem %.2fx (loop %v, batched %v) | engine %.2fx | %.1f scenarios/sec",
			preset, len(tc.scns), row.SubsystemSpeedup,
			time.Duration(row.SubsystemLoopNs), time.Duration(row.SubsystemBatchedNs),
			row.EngineSpeedup, row.ScenariosPerSec)

		// Acceptance gate: at S=3 the batched subsystem must be at least 2x
		// the per-corner rebuild loop. The margin comes from amortizing S
		// reference builds and extractions, so it holds on a single CPU.
		if len(tc.scns) == 3 && row.SubsystemSpeedup < 2.0 {
			t.Errorf("S=3 batched subsystem speedup %.2fx < 2x gate (loop %v, batched %v)",
				row.SubsystemSpeedup, time.Duration(row.SubsystemLoopNs), time.Duration(row.SubsystemBatchedNs))
		}
		report.Rows = append(report.Rows, row)
	}

	writeBenchJSON(t, "BENCH_batch.json", &report)
}

// The legacy baseline's characterization step: a fully re-characterized
// library and parasitics set per corner.

// scaleLibrary returns a deep copy of lib with every delay, transition and
// sigma table scaled for the corner. Pin caps, areas and footprints are
// unchanged (loading does not move with PVT in this model).
func scaleLibrary(lib *liberty.Library, c batch.Scenario) *liberty.Library {
	cells := make([]*liberty.Cell, len(lib.Cells))
	for i, src := range lib.Cells {
		cp := *src
		cp.PinCap = make(map[string]float64, len(src.PinCap))
		for k, v := range src.PinCap {
			cp.PinCap[k] = v
		}
		cp.Inputs = append([]string(nil), src.Inputs...)
		cp.Outputs = append([]string(nil), src.Outputs...)
		cp.Setup = [2]float64{src.Setup[0] * c.DelayScale, src.Setup[1] * c.DelayScale}
		cp.Hold = [2]float64{src.Hold[0] * c.DelayScale, src.Hold[1] * c.DelayScale}
		cp.Arcs = make([]liberty.Arc, len(src.Arcs))
		for ai := range src.Arcs {
			sa := &src.Arcs[ai]
			da := &cp.Arcs[ai]
			da.From, da.To, da.Sense = sa.From, sa.To, sa.Sense
			for rf := 0; rf < 2; rf++ {
				da.Delay[rf] = scaleTable(&sa.Delay[rf], c.DelayScale)
				da.OutSlew[rf] = scaleTable(&sa.OutSlew[rf], c.DelayScale)
				da.Sigma[rf] = scaleTable(&sa.Sigma[rf], c.SigmaScale)
			}
		}
		cells[i] = &cp
	}
	return liberty.Rebuild(lib.Name+"@"+c.Name, cells)
}

func scaleTable(t *liberty.Table, f float64) liberty.Table {
	out := liberty.Table{
		Slew: append([]float64(nil), t.Slew...),
		Load: append([]float64(nil), t.Load...),
		Val:  make([][]float64, len(t.Val)),
	}
	for i, row := range t.Val {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = v * f
		}
		out.Val[i] = r
	}
	return out
}

// scaleParasitics returns a copy of par with branch R and C scaled.
func scaleParasitics(par *rc.Parasitics, f float64) *rc.Parasitics {
	out := &rc.Parasitics{Params: par.Params, Nets: make([]rc.Net, len(par.Nets))}
	out.Params.RPerUnit *= f
	out.Params.CPerUnit *= f
	for i := range par.Nets {
		if len(par.Nets[i].Branch) == 0 {
			continue
		}
		bs := make([]rc.Branch, len(par.Nets[i].Branch))
		for j, b := range par.Nets[i].Branch {
			bs[j] = rc.Branch{Len: b.Len, R: b.R * f, C: b.C * f}
		}
		out.Nets[i].Branch = bs
	}
	return out
}

func TestScaleLibraryScalesEverything(t *testing.T) {
	lib := liberty.NewSynthetic(liberty.TechN3())
	c := batch.Scenario{Name: "ss", DelayScale: 1.2, SigmaScale: 1.5, RCScale: 1}
	scaled := scaleLibrary(lib, c)
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	id, _ := lib.CellByName("INV_X1")
	sid, ok := scaled.CellByName("INV_X1")
	if !ok || sid != id {
		t.Fatal("cell ids not stable across scaling")
	}
	orig := lib.Cell(id).FindArc("A", "Y")
	got := scaled.Cell(sid).FindArc("A", "Y")
	d0 := orig.Delay[0].Lookup(10, 4)
	d1 := got.Delay[0].Lookup(10, 4)
	if math.Abs(d1-1.2*d0) > 1e-9 {
		t.Errorf("delay scale: %v, want %v", d1, 1.2*d0)
	}
	s0 := orig.Sigma[0].Lookup(10, 4)
	s1 := got.Sigma[0].Lookup(10, 4)
	if math.Abs(s1-1.5*s0) > 1e-9 {
		t.Errorf("sigma scale: %v, want %v", s1, 1.5*s0)
	}
	// Original untouched.
	if orig.Delay[0].Lookup(10, 4) != d0 {
		t.Error("scaling mutated the source library")
	}
}
