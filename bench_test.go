// Package insta's top-level benchmarks regenerate the runtime columns of
// every table and figure in the paper's evaluation:
//
//	BenchmarkTableI_*    — INSTA full-graph propagation per block (Table I)
//	BenchmarkFig6_*      — the Top-K runtime trade-off (Fig. 6)
//	BenchmarkFig7_*      — one sizing iteration per engine (Fig. 7)
//	BenchmarkTableII_*   — the backward kernel (bRT) and the sizing flows
//	BenchmarkTableIII_*  — one timing-refresh placement iteration (Fig. 9)
//	BenchmarkAblation_*  — design-choice ablations called out in DESIGN.md
//
// Run with: go test -bench=. -benchmem .
package insta

import (
	"runtime"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/place"
	"insta/internal/refsta"
	"insta/internal/sizing"
)

// buildBlock generates a block preset and its reference engine + extraction,
// failing the benchmark on error.
func buildBlock(b *testing.B, name string) *exp.Setup {
	b.Helper()
	spec, err := bench.BlockSpec(name)
	if err != nil {
		b.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func newInsta(b *testing.B, s *exp.Setup, topK int, tau float64) *core.Engine {
	b.Helper()
	e, err := core.NewEngine(s.Tab, core.Options{TopK: topK, Tau: tau, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// --- Table I: full-graph propagation runtime per block at TopK=32 ---

func benchPropagate(b *testing.B, block string, topK int) {
	s := buildBlock(b, block)
	e := newInsta(b, s, topK, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run()
	}
	b.ReportMetric(float64(s.B.D.NumPins()), "pins")
	b.ReportMetric(float64(e.NumLevels()), "levels")
}

func BenchmarkTableI_Block1_Propagate(b *testing.B) { benchPropagate(b, "block-1", 32) }
func BenchmarkTableI_Block2_Propagate(b *testing.B) { benchPropagate(b, "block-2", 32) }

// BenchmarkTableI_Block2_PropagateMT is the Table I row with the scheduler
// pool at full machine width (Workers = NumCPU) instead of the serial path.
func BenchmarkTableI_Block2_PropagateMT(b *testing.B) {
	s := buildBlock(b, "block-2")
	e, err := core.NewEngine(s.Tab, core.Options{TopK: 32, Tau: 0.01, Workers: runtime.NumCPU()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run()
	}
	b.ReportMetric(float64(s.B.D.NumPins()), "pins")
	b.ReportMetric(float64(e.NumLevels()), "levels")
}
func BenchmarkTableI_Block3_Propagate(b *testing.B) { benchPropagate(b, "block-3", 32) }
func BenchmarkTableI_Block4_Propagate(b *testing.B) { benchPropagate(b, "block-4", 32) }
func BenchmarkTableI_Block5_Propagate(b *testing.B) { benchPropagate(b, "block-5", 32) }

// BenchmarkTableI_ReferenceUpdateTiming is the UT column: a full
// update_timing of the reference signoff engine on block-2.
func BenchmarkTableI_ReferenceUpdateTiming(b *testing.B) {
	s := buildBlock(b, "block-2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ref.UpdateTimingFull()
	}
}

// --- Fig. 6: Top-K trade-off on block-1 ---

func BenchmarkFig6_TopK1(b *testing.B)   { benchPropagate(b, "block-1", 1) }
func BenchmarkFig6_TopK32(b *testing.B)  { benchPropagate(b, "block-1", 32) }
func BenchmarkFig6_TopK128(b *testing.B) { benchPropagate(b, "block-1", 128) }

// --- Fig. 7: one sizing iteration (batch of 120 resizes) per engine ---

func fig7Setup(b *testing.B) (*exp.Setup, []bench.Batch) {
	s := buildBlock(b, "block-2")
	spec, _ := bench.BlockSpec("block-2")
	batches := bench.BatchedChangelist(s.B, spec.Seed+77, 64, 120)
	if len(batches) == 0 {
		b.Fatal("empty changelist")
	}
	return s, batches
}

func BenchmarkFig7_InhouseFullSTA(b *testing.B) {
	s, batches := fig7Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rz := range batches[i%len(batches)] {
			if _, err := s.Ref.ResizeCell(rz.Cell, rz.NewLib); err != nil {
				b.Fatal(err)
			}
		}
		s.Ref.UpdateTimingFull()
	}
}

func BenchmarkFig7_ReferenceIncremental(b *testing.B) {
	s, batches := fig7Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rz := range batches[i%len(batches)] {
			if _, err := s.Ref.ResizeCell(rz.Cell, rz.NewLib); err != nil {
				b.Fatal(err)
			}
		}
		s.Ref.UpdateTimingIncremental()
	}
}

func BenchmarkFig7_InstaEstimateAndPropagate(b *testing.B) {
	s, batches := fig7Setup(b)
	e := newInsta(b, s, 32, 0.01)
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rz := range batches[i%len(batches)] {
			deltas, err := s.Ref.EstimateECO(rz.Cell, rz.NewLib)
			if err != nil {
				b.Fatal(err)
			}
			for _, dl := range deltas {
				e.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
				e.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
			}
		}
		e.Run()
	}
}

// --- Table II: the backward kernel (bRT column) and the sizing flows ---

func benchBackward(b *testing.B, design string) {
	spec, err := bench.IWLSSpec(design)
	if err != nil {
		b.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	e := newInsta(b, s, 4, 0.01)
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Backward()
	}
}

func BenchmarkTableII_BackwardKernel_AesCore(b *testing.B)   { benchBackward(b, "aes_core") }
func BenchmarkTableII_BackwardKernel_CipherTop(b *testing.B) { benchBackward(b, "cipher_top") }
func BenchmarkTableII_BackwardKernel_Des(b *testing.B)       { benchBackward(b, "des") }
func BenchmarkTableII_BackwardKernel_McTop(b *testing.B)     { benchBackward(b, "mc_top") }

func BenchmarkTableII_InstaSize_Des(b *testing.B) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := exp.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		e := newInsta(b, s, 4, 0.01)
		b.StartTimer()
		sizing.InstaSize(s.Ref, e, sizing.DefaultConfig())
	}
}

func BenchmarkTableII_BaselineSize_Des(b *testing.B) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := exp.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sizing.BaselineSize(s.Ref, sizing.DefaultBaselineConfig())
	}
}

// --- Table III / Fig. 9: one timing-refresh placement iteration ---

func benchPlacementIteration(b *testing.B, mode place.Mode) {
	spec, err := bench.SuperblueSpec("superblue10")
	if err != nil {
		b.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	var eng *core.Engine
	if mode == place.ModeInsta {
		eng = newInsta(b, s, 2, 60)
	}
	p, err := place.New(s.Ref, eng, place.DefaultConfig(mode))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the placement a little so the measured iteration is typical.
	for it := 0; it < 30; it++ {
		p.Step(it)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RefreshTiming()
		p.Step(30 + i%100)
	}
}

func BenchmarkTableIII_Fig9_NetWeightIteration(b *testing.B) {
	benchPlacementIteration(b, place.ModeNetWeight)
}

func BenchmarkTableIII_Fig9_InstaPlaceIteration(b *testing.B) {
	benchPlacementIteration(b, place.ModeInsta)
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblation_Workers compares the level-parallel kernel at different
// worker-pool sizes (the paper's GPU parallelism axis).
func BenchmarkAblation_Workers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkAblation_Workers4(b *testing.B) { benchWorkers(b, 4) }

func benchWorkers(b *testing.B, workers int) {
	s := buildBlock(b, "block-1")
	e, err := core.NewEngine(s.Tab, core.Options{TopK: 32, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run()
	}
}

// BenchmarkAblation_BackwardTau measures the backward kernel across LSE
// temperatures: hotter softmax touches more arcs.
func BenchmarkAblation_BackwardTauCold(b *testing.B) { benchTau(b, 0.01) }
func BenchmarkAblation_BackwardTauHot(b *testing.B)  { benchTau(b, 60) }

func benchTau(b *testing.B, tau float64) {
	s := buildBlock(b, "block-5")
	e := newInsta(b, s, 1, tau)
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Backward()
	}
}

// BenchmarkAblation_ExactCPPRReference measures the map-merge exact engine
// against INSTA's fixed-K propagation on the same design (the accuracy/
// runtime trade the paper's Top-K design buys).
func BenchmarkAblation_ExactCPPRReference(b *testing.B) {
	s := buildBlock(b, "block-5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ref.UpdateTimingFull()
	}
}

// BenchmarkExtraction measures the one-time circuitops extraction
// (the paper's "~10 minutes on million-gate designs" step).
func BenchmarkExtraction(b *testing.B) {
	s := buildBlock(b, "block-2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuitops.Extract(s.Ref)
	}
}

// BenchmarkInitialization measures INSTA engine construction from tables
// (graph build + levelization).
func BenchmarkInitialization(b *testing.B) {
	s := buildBlock(b, "block-2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(s.Tab, core.Options{TopK: 32, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Incremental* compares the paper's always-full-propagate
// design against the CPU-oriented cone-limited incremental mode after one
// estimate_eco batch (see internal/core/incremental.go).
func BenchmarkAblation_FullPropagateAfterECO(b *testing.B) {
	s, batches := fig7Setup(b)
	e := newInsta(b, s, 32, 0.01)
	e.Run()
	deltas := ecoDeltas(b, s, batches[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dl := range deltas {
			e.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
			e.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
		}
		e.Propagate()
	}
}

func BenchmarkAblation_IncrementalPropagateAfterECO(b *testing.B) {
	s, batches := fig7Setup(b)
	e := newInsta(b, s, 32, 0.01)
	e.Run()
	deltas := ecoDeltas(b, s, batches[0])
	arcs := make([]int32, len(deltas))
	for i, dl := range deltas {
		arcs[i] = dl.ArcID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dl := range deltas {
			e.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
			e.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
		}
		e.PropagateIncremental(arcs)
	}
}

func ecoDeltas(b *testing.B, s *exp.Setup, batch bench.Batch) []refsta.ArcDelta {
	b.Helper()
	var deltas []refsta.ArcDelta
	for _, rz := range batch {
		ds, err := s.Ref.EstimateECO(rz.Cell, rz.NewLib)
		if err != nil {
			b.Fatal(err)
		}
		deltas = append(deltas, ds...)
	}
	return deltas
}
