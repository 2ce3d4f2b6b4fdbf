package batch

import (
	"math"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/refsta"
)

// buildRef generates a small design, signs it off with the reference timer
// and extracts the nominal tables.
func buildRef(t testing.TB, seed int64) (*refsta.Engine, *circuitops.Tables) {
	t.Helper()
	b, err := bench.Generate(bench.Spec{
		Name: "batchtest", Seed: seed, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 8, Layers: 4, Width: 8,
		CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
		Period: 1, Uncertainty: 10, Die: 80, VioFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ref, circuitops.Extract(ref)
}

func buildTables(t testing.TB, seed int64) *circuitops.Tables {
	t.Helper()
	_, tab := buildRef(t, seed)
	return tab
}

func TestParseScenarios(t *testing.T) {
	scns, err := ParseScenarios("ss,tt,ff")
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 3 || scns[0].Name != "ss" || scns[1].DelayScale != 1.0 || scns[2].Name != "ff" {
		t.Fatalf("default trio parsed wrong: %+v", scns)
	}
	scns, err = ParseScenarios("tt, hot:1.3/1.4/1.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 2 || scns[1].Name != "hot" || scns[1].DelayScale != 1.3 ||
		scns[1].SigmaScale != 1.4 || scns[1].RCScale != 1.2 {
		t.Fatalf("override parsed wrong: %+v", scns)
	}
	for _, bad := range []string{"", "nope", "ss,ss", "x:1.0/2.0", "x:a/b/c", "x:0/1/1", ","} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestScaleTablesScalesByKind(t *testing.T) {
	tab := buildTables(t, 11)
	scn := Scenario{Name: "x", DelayScale: 1.2, SigmaScale: 1.5, RCScale: 1.1}
	scaled := ScaleTables(tab, scn)
	if len(scaled.Arcs) != len(tab.Arcs) {
		t.Fatal("arc count changed")
	}
	cellSeen, netSeen := false, false
	for i, a := range tab.Arcs {
		sa := scaled.Arcs[i]
		ms := scn.DelayScale
		if a.Kind == 1 {
			ms = scn.RCScale
			netSeen = true
		} else {
			cellSeen = true
		}
		if sa.MeanRise != a.MeanRise*ms || sa.MeanFall != a.MeanFall*ms ||
			sa.StdRise != a.StdRise*scn.SigmaScale || sa.StdFall != a.StdFall*scn.SigmaScale {
			t.Fatalf("arc %d (kind %d) scaled wrong", i, a.Kind)
		}
	}
	if !cellSeen || !netSeen {
		t.Fatal("design has no cell/net arc mix")
	}
	// SP/EP/clock tables are shared, not copied-and-scaled.
	if &scaled.EPs[0] != &tab.EPs[0] || scaled.EPs[0].BaseReqRise != tab.EPs[0].BaseReqRise {
		t.Error("EP table should be shared untouched")
	}
	// Source left intact.
	if tab.Arcs[0].MeanRise == scaled.Arcs[0].MeanRise && scn.DelayScale != 1 && tab.Arcs[0].MeanRise != 0 {
		t.Error("scaling mutated the source tables")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	tab := buildTables(t, 12)
	if _, err := New(tab, nil, core.Options{TopK: 4}); err == nil {
		t.Error("empty scenario list accepted")
	}
	if _, err := New(tab, DefaultScenarios(), core.Options{TopK: 0}); err == nil {
		t.Error("TopK 0 accepted")
	}
	if _, err := New(tab, []Scenario{{Name: "bad"}}, core.Options{TopK: 4}); err == nil {
		t.Error("zero scales accepted")
	}
}

func TestScenarioOrderingSlowToFast(t *testing.T) {
	tab := buildTables(t, 13)
	e, err := New(tab, DefaultScenarios(), core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	ss, tt, ff := e.ScenarioIndex("ss"), e.ScenarioIndex("tt"), e.ScenarioIndex("ff")
	if ss < 0 || tt < 0 || ff < 0 {
		t.Fatal("scenario indices unresolved")
	}
	sSS, sTT, sFF := e.Slacks(ss), e.Slacks(tt), e.Slacks(ff)
	for i := range sTT {
		if math.IsInf(sTT[i], 0) {
			continue
		}
		if sSS[i] > sTT[i]+1e-9 || sTT[i] > sFF[i]+1e-9 {
			t.Fatalf("ep %d: corner ordering broken ss=%v tt=%v ff=%v", i, sSS[i], sTT[i], sFF[i])
		}
	}
	if e.WNS(ss) > e.WNS(tt) || e.TNS(ss) > e.TNS(tt) {
		t.Error("slow corner better than typical")
	}
}

func TestMergedViewSemantics(t *testing.T) {
	tab := buildTables(t, 14)
	e, err := New(tab, DefaultScenarios(), core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	v := e.Merged()
	S := e.NumScenarios()
	for i := range v.Slacks {
		min := math.Inf(1)
		for s := 0; s < S; s++ {
			if sl := e.LaneSlacks(s)[i]; sl < min {
				min = sl
			}
		}
		if v.Slacks[i] != min {
			t.Fatalf("ep %d merged %v != min %v", i, v.Slacks[i], min)
		}
		if !math.IsInf(min, 1) {
			if v.WorstOf[i] < 0 || e.LaneSlacks(v.WorstOf[i])[i] != min {
				t.Fatalf("ep %d worst-of label wrong", i)
			}
			if v.WorstName(e.Scenarios(), i) == "" {
				t.Fatalf("ep %d has no worst scenario name", i)
			}
		}
	}
	// Merged metrics at least as bad as any scenario's.
	for s := 0; s < S; s++ {
		if v.WNS > e.WNS(s) || v.TNS > e.TNS(s) {
			t.Errorf("merged WNS/TNS better than scenario %d", s)
		}
		if v.PerScenario[s].WNS != e.WNS(s) || v.PerScenario[s].TNS != e.TNS(s) ||
			v.PerScenario[s].Violations != e.NumViolations(s) {
			t.Errorf("per-scenario metrics row %d disagrees with accessors", s)
		}
	}
}

func TestMemoryBytesGrowsWithScenariosNotGraph(t *testing.T) {
	tab := buildTables(t, 15)
	e1, err := New(tab, DefaultScenarios()[:1], core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e3, err := New(tab, DefaultScenarios(), core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	m1, m3 := e1.MemoryBytes(), e3.MemoryBytes()
	if m3 <= m1 {
		t.Fatalf("S=3 footprint %d not larger than S=1 %d", m3, m1)
	}
	// The batched tensors triple but the shared graph does not, so total is
	// well under 3x.
	if m3 >= 3*m1 {
		t.Fatalf("S=3 footprint %d >= 3x S=1 %d — topology not shared?", m3, m1)
	}
}

// TestWithUnitAndWrap: a scenario list served by a daemon always has a
// unit-scale scenario (tt is prepended when none is), and a single-lane
// engine built on core wraps to exactly one such scenario.
func TestWithUnitAndWrap(t *testing.T) {
	ds := DefaultScenarios()
	if got, err := WithUnit(ds); err != nil || len(got) != 3 || unitIndex(got) != 1 {
		t.Fatalf("WithUnit({ss,tt,ff}) = %+v, %v", got, err)
	}
	got, err := WithUnit([]Scenario{ds[0], ds[2]})
	if err != nil || len(got) != 3 || got[0] != ds[1] || got[1] != ds[0] || got[2] != ds[2] {
		t.Fatalf("WithUnit({ss,ff}) = %+v, %v; want tt prepended", got, err)
	}
	if _, err := WithUnit([]Scenario{{Name: "tt", DelayScale: 1.1, SigmaScale: 1, RCScale: 1}}); err == nil {
		t.Fatal("WithUnit accepted a derated tt with no unit scenario to stand in")
	}

	c, err := core.NewEngine(buildTables(t, 15), core.Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := Wrap(c)
	if w.Engine != c || w.NumScenarios() != 1 || w.UnitScenario() != 0 {
		t.Fatalf("Wrap of a single-lane engine: %+v", w.Scenarios())
	}
	w.Run()
	if mv := w.Merged(); w.WNS(0) != c.WNS() || mv.WNS != c.WNS() || mv.TNS != c.TNS() {
		t.Fatal("the wrapped view disagrees with the engine it wraps")
	}
}
