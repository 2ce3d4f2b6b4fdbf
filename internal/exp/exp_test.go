package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/num"
)

func TestCorrelate(t *testing.T) {
	inf := math.Inf(1)
	ref := []float64{1, 2, inf, 4, inf}
	got := []float64{1, 2.5, inf, 4, 9}
	r, ms, n, dis, err := Correlate(ref, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
	if dis != 1 {
		t.Errorf("disagree = %d, want 1", dis)
	}
	if ms.Worst != 0.5 {
		t.Errorf("worst = %v, want 0.5", ms.Worst)
	}
	if r < 0.9 {
		t.Errorf("corr = %v unexpectedly low", r)
	}
}

func TestBuildProducesConsistentSetup(t *testing.T) {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tab.EPs) != len(s.Ref.Endpoints()) {
		t.Error("extraction EP count mismatch")
	}
	if s.Ref.NumViolations() == 0 {
		t.Error("calibrated block should have violations")
	}
	frac := float64(s.Ref.NumViolations()) / float64(len(s.Ref.Endpoints()))
	if frac < 0.01 || frac > 0.25 {
		t.Errorf("violation fraction %v outside calibrated band", frac)
	}
}

func TestTableISmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := TableI(&buf, []string{"block-5"}, core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Corr < 0.999 {
		t.Errorf("correlation %v below 0.999", r.Corr)
	}
	if r.InstaRun <= 0 || r.UT <= 0 || r.MemoryGB <= 0 {
		t.Errorf("missing measurements: %+v", r)
	}
	if !strings.Contains(buf.String(), "block-5") {
		t.Error("table output missing design name")
	}
	if _, err := TableI(nil, []string{"no-such"}, core.Options{TopK: 8, Workers: 1}); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestFig6Smoke(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig6(&buf, "block-5", []int{1, 16}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	// More K must not hurt the worst mismatch.
	if res[1].Mismatch.Worst > res[0].Mismatch.Worst+1e-9 {
		t.Errorf("K=16 worst %v exceeds K=1 worst %v", res[1].Mismatch.Worst, res[0].Mismatch.Worst)
	}
	if res[1].MemoryGB <= res[0].MemoryGB {
		t.Error("bigger K should use more memory")
	}
	if !strings.Contains(buf.String(), "FIGURE 6") {
		t.Error("figure output missing header")
	}
}

func TestIncrementalSmoke(t *testing.T) {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		t.Fatal(err)
	}
	f7, f8, err := Incremental(spec, 3, 40, core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 3 {
		t.Fatalf("rows = %d", len(f7.Rows))
	}
	for _, r := range f7.Rows {
		if r.Inhouse <= 0 || r.PT <= 0 || r.Insta() <= 0 {
			t.Errorf("iteration %d missing timings: %+v", r.Iter, r)
		}
	}
	if f8.Before.Corr < 0.99999 {
		t.Errorf("pre-flow correlation %v should be ~1", f8.Before.Corr)
	}
	if f8.After.Mismatch.Avg < f8.Before.Mismatch.Avg {
		t.Error("estimate_eco drift should not reduce mismatch")
	}
	var buf bytes.Buffer
	PrintFig7(&buf, f7)
	PrintFig8(&buf, f8)
	if !strings.Contains(buf.String(), "FIGURE 7") || !strings.Contains(buf.String(), "FIGURE 8") {
		t.Error("printers missing headers")
	}
}

func TestTableIISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sizing flow skipped in -short mode")
	}
	var buf bytes.Buffer
	rows, err := TableII(&buf, []string{"des"}, core.Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Initial.NumViolations == 0 {
		t.Error("initial state has no violations")
	}
	if r.Insta.TNS < r.Initial.TNS || r.Baseline.TNS < r.Initial.TNS {
		t.Error("sizing made TNS worse than the initial state on both flows")
	}
	if r.BRT <= 0 {
		t.Error("backward runtime missing")
	}
	if r.Insta.CellsSized == 0 {
		t.Error("INSTA-Size sized nothing")
	}
}

func TestTableIIIAndFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("placement flows skipped in -short mode")
	}
	var buf bytes.Buffer
	rows, err := TableIII(&buf, []string{"superblue18"}, 120, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.DP.HPWL <= 0 || r.NW.HPWL <= 0 || r.Insta.HPWL <= 0 {
		t.Fatalf("missing HPWL: %+v", r)
	}
	// All flows share the density/wirelength engine; results must be within
	// a sane band of each other.
	if r.Insta.HPWL > 1.3*r.DP.HPWL {
		t.Errorf("INSTA-Place HPWL %v wildly above DP %v", r.Insta.HPWL, r.DP.HPWL)
	}
	f9, err := Fig9(&buf, "superblue18", 60, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f9.Insta.Transfer <= 0 || f9.NW.Timer <= 0 {
		t.Errorf("breakdown missing phases: %+v", f9)
	}
	_ = num.MismatchStats{}
}
