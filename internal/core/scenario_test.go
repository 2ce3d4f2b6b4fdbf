package core

// The scenario model: parsing, scaled tables, construction, the merged view
// and the scenario-indexed reads of an engine and an overlay. The overlay
// machinery itself (seed / recompute / rebase / commit / freelists) is tested
// at S > 1 in overlay_test.go.

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/liberty"
	"insta/internal/num"
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

// runScenarios is a full evaluation of every lane: propagate, setup slacks
// and, when enabled, hold slacks.
func runScenarios(e *Engine) {
	e.Run()
	if e.HoldEnabled() {
		e.RefreshHoldSlacks()
	}
}

// pickECOArcs selects a deterministic spread of arcs to perturb.
func pickECOArcs(e *Engine, n int) []int32 {
	out := make([]int32, 0, n)
	step := e.NumArcs() / n
	if step == 0 {
		step = 1
	}
	for a := 0; a < e.NumArcs() && len(out) < n; a += step {
		out = append(out, int32(a))
	}
	return out
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
	for _, bad := range []string{"", "nope", "ss,ss", "x:1.0/2.0", "x:a/b/c", "x:0/1/1", ",",
		// strconv.ParseFloat returns these without error.
		"hot:NaN/1/1", "hot:1/nan/1", "hot:1/1/Inf", "hot:+Inf/1/1", "hot:1/-inf/1", "hot:1e400/1/1"} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// A server reads "" as its nominal lane and "merged" as the worst-corner
	// row, so neither may name a scenario.
	for _, bad := range []string{":1.2/1/1", "ss,merged:1.2/1/1", "merged:1/1/1"} {
		_, err := ParseScenarios(bad)
		if err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("spec %q: error %v, want a reserved-name refusal", bad, err)
		}
	}
}

// FuzzParseScenarios: any -corners value either errors or resolves to at
// least one scenario, with unique names, none "" or "merged", and finite
// positive scales; and the list it resolves to, written back as
// name:delay/sigma/rc fields (formatScenarios), parses to the same list.
func FuzzParseScenarios(f *testing.F) {
	for _, spec := range []string{"ss,tt,ff", "tt, hot:1.3/1.4/1.2", "", ",", "ss,ss", "x:1.0/2.0",
		"x:0/1/1", "hot:NaN/1/1", "hot:1e400/1/1", ":1.2/1/1", "merged:1/1/1", " hot :0x1p-3/5e-324/1e308",
		"a/b:1/1/1,ss:1/1/1", "tt,tt:1/1/1"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		scns, err := ParseScenarios(spec)
		if err != nil {
			return
		}
		if len(scns) == 0 {
			t.Fatalf("%q: no scenario and no error", spec)
		}
		seen := make(map[string]bool)
		for _, s := range scns {
			if s.Name == "" || s.Name == "merged" || seen[s.Name] {
				t.Fatalf("%q: scenario name %q is reserved or repeated", spec, s.Name)
			}
			seen[s.Name] = true
			for _, v := range []float64{s.DelayScale, s.SigmaScale, s.RCScale} {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Fatalf("%q: scenario %q has scale %v", spec, s.Name, v)
				}
			}
		}
		text := formatScenarios(scns)
		if again, err := ParseScenarios(text); err != nil || !slices.Equal(again, scns) {
			t.Fatalf("%q resolved to %+v, written back as %q, which parses to %+v, %v", spec, scns, text, again, err)
		}
	})
}

// formatScenarios writes scns as a -corners value of name:delay/sigma/rc
// fields, each scale in the shortest form that parses back to it.
func formatScenarios(scns []Scenario) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fields := make([]string, len(scns))
	for i, s := range scns {
		fields[i] = s.Name + ":" + g(s.DelayScale) + "/" + g(s.SigmaScale) + "/" + g(s.RCScale)
	}
	return strings.Join(fields, ",")
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
	if _, err := NewEngineScenarios(tab, nil, Options{TopK: 4}); err == nil {
		t.Error("empty scenario list accepted")
	}
	if _, err := NewEngineScenarios(tab, DefaultScenarios(), Options{TopK: 0}); err == nil {
		t.Error("TopK 0 accepted")
	}
	if _, err := NewEngineScenarios(tab, []Scenario{{Name: "bad"}}, Options{TopK: 4}); err == nil {
		t.Error("zero scales accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, scn := range []Scenario{
			{Name: "d", DelayScale: v, SigmaScale: 1, RCScale: 1},
			{Name: "s", DelayScale: 1, SigmaScale: v, RCScale: 1},
			{Name: "r", DelayScale: 1, SigmaScale: 1, RCScale: v},
		} {
			if e, err := NewEngineScenarios(tab, []Scenario{scn}, Options{TopK: 4}); err == nil {
				e.Close()
				t.Errorf("scenario %+v accepted", scn)
			}
		}
	}
}

func TestScenarioOrderingSlowToFast(t *testing.T) {
	tab := buildTables(t, 13)
	e, err := NewEngineScenarios(tab, DefaultScenarios(), Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runScenarios(e)
	sSS, sTT, sFF := e.LaneSlacks(0), e.LaneSlacks(1), e.LaneSlacks(2)
	for i := range sTT {
		if math.IsInf(sTT[i], 0) {
			continue
		}
		if sSS[i] > sTT[i]+1e-9 || sTT[i] > sFF[i]+1e-9 {
			t.Fatalf("ep %d: corner ordering broken ss=%v tt=%v ff=%v", i, sSS[i], sTT[i], sFF[i])
		}
	}
	if WNS(sSS) > WNS(sTT) || TNS(sSS) > TNS(sTT) {
		t.Error("slow corner better than typical")
	}
}

func TestMergedViewSemantics(t *testing.T) {
	tab := buildTables(t, 14)
	e, err := NewEngineScenarios(tab, DefaultScenarios(), Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runScenarios(e)
	v := e.Merged()
	S := e.Lanes()
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
			if e.Scenarios()[v.WorstOf[i]].Name == "" {
				t.Fatalf("ep %d has no worst scenario name", i)
			}
		} else if v.WorstOf[i] != -1 {
			t.Fatalf("ep %d is untimed in every lane but labelled %d", i, v.WorstOf[i])
		}
	}
	if got := e.MergedSlacksInto(nil); len(got) != len(v.Slacks) {
		t.Fatal("MergedSlacksInto disagrees with Merged on length")
	} else {
		for i := range got {
			if got[i] != v.Slacks[i] {
				t.Fatalf("ep %d: MergedSlacksInto %v != Merged %v", i, got[i], v.Slacks[i])
			}
		}
	}
	// Merged metrics at least as bad as any scenario's.
	for s := 0; s < S; s++ {
		if v.WNS > WNS(e.LaneSlacks(s)) || v.TNS > TNS(e.LaneSlacks(s)) {
			t.Errorf("merged WNS/TNS better than scenario %d", s)
		}
	}
	if v.WNS != WNS(v.Slacks) || v.TNS != TNS(v.Slacks) || v.Violations != Violations(v.Slacks) {
		t.Error("merged figures disagree with the merged slacks")
	}
}

func TestMemoryBytesGrowsWithScenariosNotGraph(t *testing.T) {
	tab := buildTables(t, 15)
	e1, err := NewEngineScenarios(tab, DefaultScenarios()[:1], Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e3, err := NewEngineScenarios(tab, DefaultScenarios(), Options{TopK: 8, Workers: 1})
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

// TestWithUnitAndNominalLane: a scenario list served by a daemon always has
// a unit-scale scenario (tt is prepended when none is), and a single-lane
// engine from NewEngine is exactly one unnamed such scenario.
func TestWithUnitAndNominalLane(t *testing.T) {
	ds := DefaultScenarios()
	if got, err := WithUnit(ds); err != nil || len(got) != 3 || UnitLane(got) != 1 {
		t.Fatalf("WithUnit({ss,tt,ff}) = %+v, %v", got, err)
	}
	got, err := WithUnit([]Scenario{ds[0], ds[2]})
	if err != nil || len(got) != 3 || got[0] != ds[1] || got[1] != ds[0] || got[2] != ds[2] {
		t.Fatalf("WithUnit({ss,ff}) = %+v, %v; want tt prepended", got, err)
	}
	if _, err := WithUnit([]Scenario{{Name: "tt", DelayScale: 1.1, SigmaScale: 1, RCScale: 1}}); err == nil {
		t.Fatal("WithUnit accepted a derated tt with no unit scenario to stand in")
	}

	c, err := NewEngine(buildTables(t, 15), Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if scns := c.Scenarios(); len(scns) != 1 || scns[0].Name != "" || UnitLane(scns) != 0 {
		t.Fatalf("single-lane engine scenarios: %+v", scns)
	}
	c.Run()
	if mv := c.Merged(); mv.WNS != c.WNS() || mv.TNS != c.TNS() {
		t.Fatal("the merged view of one lane disagrees with that lane")
	}
}

func TestOverlayPreviewMatchesCommit(t *testing.T) {
	tab := buildTables(t, 31)
	opt := Options{TopK: 8, Hold: true, Workers: 2}
	e, err := NewEngineScenarios(tab, DefaultScenarios(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runScenarios(e)

	ov := NewOverlay(e)
	for _, a := range pickECOArcs(e, 5) {
		for rf := 0; rf < 2; rf++ {
			d := e.ArcDelay(a, rf)
			ov.SetArcDelay(a, rf, num.Dist{Mean: d.Mean*1.4 + 2, Std: d.Std * 1.2})
		}
	}
	ov.Propagate()

	S := e.Lanes()
	preview := make([][]float64, S)
	for s := 0; s < S; s++ {
		preview[s] = make([]float64, len(e.Endpoints()))
		for i := range e.Endpoints() {
			preview[s][i] = ov.LaneSlack(s, int32(i))
		}
	}
	pWNS := make([]float64, S)
	pTNS := make([]float64, S)
	for s := 0; s < S; s++ {
		pWNS[s], pTNS[s] = ov.LaneWNS(s), ov.LaneTNS(s)
	}
	pmWNS, pmTNS := ov.Summarize(make([]float64, S), make([]float64, S))
	changed := slices.Clone(ov.ChangedEndpointsView())
	if len(changed) == 0 {
		t.Fatal("ECO touched no endpoints — test design is vacuous")
	}

	ov.Commit()
	if st := ov.Stats(); st.TouchedArcs != 0 || st.OverlayPins != 0 || st.ChangedEPs != 0 {
		t.Fatalf("commit left overlay state behind: %+v", st)
	}
	for s := 0; s < S; s++ {
		got := e.LaneSlacks(s)
		for i := range got {
			if got[i] != preview[s][i] {
				t.Fatalf("scenario %d ep %d: committed %v != preview %v", s, i, got[i], preview[s][i])
			}
		}
		if WNS(got) != pWNS[s] || TNS(got) != pTNS[s] {
			t.Fatalf("scenario %d: committed WNS/TNS %v/%v != preview %v/%v",
				s, WNS(got), TNS(got), pWNS[s], pTNS[s])
		}
	}
	m := e.Merged()
	if m.WNS != pmWNS || m.TNS != pmTNS {
		t.Fatalf("merged WNS/TNS %v/%v != preview %v/%v", m.WNS, m.TNS, pmWNS, pmTNS)
	}
}

// TestOverlayConcurrentReuseMatchesFresh is the concurrent overlay-reuse
// differential: eight sessions evaluate reused (pooled-scratch,
// freelist-backed) overlays in parallel over one frozen multi-lane base, each
// repeatedly resetting and reapplying its own deltas, and every iteration
// must reproduce bit-for-bit what a fresh-allocation overlay computed
// serially. Run under -race in ci.sh, this pins down the overlay concurrency
// contract: per-overlay scratch (wavefront buckets, kernel snapshot buffers,
// persistent kernel closures) never leaks across sessions, and the shared base
// plus shared scheduler pool are read-only under concurrent Propagate calls.
func TestOverlayConcurrentReuseMatchesFresh(t *testing.T) {
	tab := buildTables(t, 41)
	e, err := NewEngineScenarios(tab, DefaultScenarios(), Options{TopK: 6, Hold: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runScenarios(e)

	const nSess = 8
	const iters = 3
	S := e.Lanes()
	nEP := len(e.Endpoints())

	// Session g perturbs arcs ≡ g (mod 8·7): disjoint arc sets whose fan-out
	// cones still overlap heavily, so concurrent wavefronts walk shared
	// levels of the same base.
	apply := func(ov *Overlay, g int) {
		scale := 1.1 + 0.05*float64(g)
		for a := int32(g); a < int32(e.NumArcs()); a += nSess * 7 {
			for rf := 0; rf < 2; rf++ {
				d := e.ArcDelay(a, rf)
				ov.SetArcDelay(a, rf, num.Dist{Mean: d.Mean * scale, Std: d.Std})
			}
		}
		ov.Propagate()
	}
	snapshot := func(ov *Overlay, dst []float64) {
		for s := 0; s < S; s++ {
			for i := 0; i < nEP; i++ {
				dst[s*nEP+i] = ov.LaneSlack(s, int32(i))
			}
		}
	}

	// Reference: a fresh overlay per session, evaluated serially.
	want := make([][]float64, nSess)
	for g := 0; g < nSess; g++ {
		ov := NewOverlay(e)
		apply(ov, g)
		want[g] = make([]float64, S*nEP)
		snapshot(ov, want[g])
		if len(ov.ChangedEndpointsView()) == 0 {
			t.Fatalf("session %d: deltas changed no endpoints — test is vacuous", g)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < nSess; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ov := NewOverlay(e)
			got := make([]float64, S*nEP)
			for it := 0; it < iters; it++ {
				if it > 0 {
					ov.Reset() // recycle pins/slacks through the freelists
				}
				apply(ov, g)
				snapshot(ov, got)
				for j := range got {
					if got[j] != want[g][j] {
						t.Errorf("session %d iter %d: slack[s=%d,ep=%d] %v != fresh %v",
							g, it, j/nEP, j%nEP, got[j], want[g][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
