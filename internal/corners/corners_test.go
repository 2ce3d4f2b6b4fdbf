package corners

import (
	"math"
	"testing"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/liberty"
)

func genDesign(t testing.TB) *bench.Design {
	t.Helper()
	b, err := bench.Generate(bench.Spec{
		Name: "cornertest", Seed: 9, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 8, Layers: 4, Width: 8,
		CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
		Period: 1, Uncertainty: 10, Die: 80, VioFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func buildAnalysis(t testing.TB) *Analysis {
	t.Helper()
	b := genDesign(t)
	a, err := New(b.D, b.Lib, b.Con, b.Par, DefaultCorners(), core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func TestSlowCornerIsWorse(t *testing.T) {
	a := buildAnalysis(t)
	ss, tt, ff := a.CornerIndex("ss"), a.CornerIndex("tt"), a.CornerIndex("ff")
	if ss < 0 || tt < 0 || ff < 0 {
		t.Fatal("missing corner views")
	}
	// Every timed endpoint: ss slack <= tt slack <= ff slack.
	sSS, sTT, sFF := a.Eng.Slacks(ss), a.Eng.Slacks(tt), a.Eng.Slacks(ff)
	for i := range sTT {
		if math.IsInf(sTT[i], 0) {
			continue
		}
		if sSS[i] > sTT[i]+1e-9 || sTT[i] > sFF[i]+1e-9 {
			t.Fatalf("ep %d: corner ordering broken ss=%v tt=%v ff=%v", i, sSS[i], sTT[i], sFF[i])
		}
	}
}

func TestMergedIsWorstPerEndpoint(t *testing.T) {
	a := buildAnalysis(t)
	merged := a.MergedSlacks()
	worstOf := a.WorstCornerPerEndpoint()
	for i := range merged {
		min := math.Inf(1)
		for s := range a.Corners {
			if sl := a.Eng.Slacks(s)[i]; sl < min {
				min = sl
			}
		}
		if merged[i] != min {
			t.Fatalf("ep %d merged %v != min %v", i, merged[i], min)
		}
		if !math.IsInf(merged[i], 1) && worstOf[i] == "" {
			t.Fatalf("ep %d has no worst corner label", i)
		}
	}
	// Merged metrics are at least as bad as any single corner's.
	for s, c := range a.Corners {
		if a.TNS() > a.Eng.TNS(s) {
			t.Errorf("merged TNS %v better than corner %s TNS %v", a.TNS(), c.Name, a.Eng.TNS(s))
		}
		if a.WNS() > a.Eng.WNS(s) {
			t.Errorf("merged WNS %v better than corner %s WNS %v", a.WNS(), c.Name, a.Eng.WNS(s))
		}
	}
}

// TestPerCornerMatchesDeratedEngine pins the analysis path's contract: each
// corner of the batched Analysis is bit-identical to a standalone
// single-corner engine over the derated tables.
func TestPerCornerMatchesDeratedEngine(t *testing.T) {
	a := buildAnalysis(t)
	for s, c := range a.Corners {
		se, err := core.NewEngine(batch.ScaleTables(a.Tables, c.Scenario()), core.Options{TopK: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := se.Run()
		got := a.Eng.Slacks(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("corner %s ep %d: %v != %v", c.Name, i, got[i], want[i])
			}
		}
		se.Close()
	}
}

// TestNominalCornerMatchesReference keeps the reference-grade anchor: the tt
// corner (all scales 1) must correlate with the nominal reference timer.
func TestNominalCornerMatchesReference(t *testing.T) {
	b := genDesign(t)
	a, err := New(b.D, b.Lib, b.Con, b.Par, DefaultCorners(), core.Options{TopK: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tt := a.CornerIndex("tt")
	r, ms, _, _, err := exp.Correlate(a.Ref.EndpointSlacks(), a.Eng.Slacks(tt))
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.999999 || ms.Worst > 1e-6 {
		t.Errorf("tt corner vs reference: corr %v worst %v", r, ms.Worst)
	}
}

func TestNewRejectsEmptyCorners(t *testing.T) {
	b := genDesign(t)
	if _, err := New(b.D, b.Lib, b.Con, b.Par, nil, core.Options{TopK: 2}); err == nil {
		t.Error("empty corner list accepted")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	b := genDesign(t)
	a, err := New(b.D, b.Lib, b.Con, b.Par, DefaultCorners(), core.Options{TopK: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // second close must not panic
}
