package core

import (
	"math"
	"sort"
	"testing"

	"insta/internal/liberty"
	"insta/internal/num"
)

// tighten shifts all endpoint required times so that roughly the requested
// fraction of endpoints violate, making gradient tests robust to generator
// seed variance.
func tighten(t *testing.T, h *harness, frac float64) {
	t.Helper()
	e, err := NewEngine(h.tab, Options{TopK: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	slacks := e.Run()
	finite := make([]float64, 0, len(slacks))
	for _, s := range slacks {
		if !math.IsInf(s, 0) {
			finite = append(finite, s)
		}
	}
	if len(finite) == 0 {
		t.Fatal("no timed endpoints")
	}
	sort.Float64s(finite)
	shift := finite[int(float64(len(finite))*frac)] + 1
	for i := range h.tab.EPs {
		h.tab.EPs[i].BaseReqRise -= shift
		h.tab.EPs[i].BaseReqFall -= shift
	}
}

// k1Loss evaluates the differentiable-mode loss on a TopK=1 engine: the TNS
// over k=0 entries, which is exactly what Backward's endpoint seeding uses.
func k1Loss(e *Engine) float64 {
	e.Run()
	return e.TNS()
}

func TestBackwardGradientSigns(t *testing.T) {
	h := buildHarness(t, testSpec(31))
	tighten(t, h, 0.1)
	e, err := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	e.Backward()
	anyNonZero := false
	for arc := int32(0); arc < int32(e.NumArcs()); arc++ {
		g := e.TimingGradient(arc)
		if g > 1e-12 {
			t.Fatalf("arc %d has positive timing gradient %v (increasing delay cannot raise TNS)", arc, g)
		}
		if g != 0 {
			anyNonZero = true
		}
		for rf := 0; rf < 2; rf++ {
			if gs := e.ArcGradStd(arc, rf); gs > 1e-12 {
				t.Fatalf("arc %d rf %d positive sigma gradient %v", arc, rf, gs)
			}
		}
	}
	if !anyNonZero {
		t.Fatal("no arc received gradient despite violations")
	}
	if e.NumViolations() == 0 {
		t.Fatal("test design has no violations; gradients untestable")
	}
}

func TestBackwardFiniteDifferenceMean(t *testing.T) {
	h := buildHarness(t, testSpec(32))
	tighten(t, h, 0.1)
	e, err := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	e.Backward()

	const hstep = 0.05
	checked := 0
	for arc := int32(0); arc < int32(e.NumArcs()) && checked < 12; arc++ {
		for rf := 0; rf < 2; rf++ {
			g := e.ArcGradMean(arc, rf)
			if math.Abs(g) < 0.25 {
				continue // skip near-zero / heavily split gradients
			}
			orig := e.ArcDelay(arc, rf)
			e.SetArcDelay(arc, rf, num.Dist{Mean: orig.Mean + hstep, Std: orig.Std})
			up := k1Loss(e)
			e.SetArcDelay(arc, rf, num.Dist{Mean: orig.Mean - hstep, Std: orig.Std})
			dn := k1Loss(e)
			e.SetArcDelay(arc, rf, orig)
			e.Run()
			fd := (up - dn) / (2 * hstep)
			if math.Abs(fd-g) > 0.15*math.Abs(g)+0.05 {
				t.Errorf("arc %d rf %d: fd %v vs grad %v", arc, rf, fd, g)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no arcs with significant gradient found")
	}
	// Restore clean state for other assertions.
	e.Run()
}

func TestBackwardFiniteDifferenceStd(t *testing.T) {
	h := buildHarness(t, testSpec(33))
	tighten(t, h, 0.1)
	e, err := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	e.Backward()
	const hstep = 0.02
	checked := 0
	for arc := int32(0); arc < int32(e.NumArcs()) && checked < 6; arc++ {
		for rf := 0; rf < 2; rf++ {
			g := e.ArcGradStd(arc, rf)
			if math.Abs(g) < 0.4 {
				continue
			}
			orig := e.ArcDelay(arc, rf)
			if orig.Std < 2*hstep {
				continue
			}
			e.SetArcDelay(arc, rf, num.Dist{Mean: orig.Mean, Std: orig.Std + hstep})
			up := k1Loss(e)
			e.SetArcDelay(arc, rf, num.Dist{Mean: orig.Mean, Std: orig.Std - hstep})
			dn := k1Loss(e)
			e.SetArcDelay(arc, rf, orig)
			e.Run()
			fd := (up - dn) / (2 * hstep)
			if math.Abs(fd-g) > 0.2*math.Abs(g)+0.1 {
				t.Errorf("arc %d rf %d: sigma fd %v vs grad %v", arc, rf, fd, g)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no arcs with significant sigma gradient in this design")
	}
}

func TestBackwardZeroWhenNoViolations(t *testing.T) {
	h := buildHarness(t, testSpec(34))
	// Stretch the period far beyond any arrival: no violations, no gradient.
	for i := range h.tab.EPs {
		h.tab.EPs[i].BaseReqRise += 1e6
		h.tab.EPs[i].BaseReqFall += 1e6
	}
	e, _ := NewEngine(h.tab, Options{TopK: 1, Workers: 1})
	e.Run()
	if e.NumViolations() != 0 {
		t.Fatal("expected no violations")
	}
	e.Backward()
	for arc := int32(0); arc < int32(e.NumArcs()); arc++ {
		if e.TimingGradient(arc) != 0 {
			t.Fatalf("arc %d has gradient without violations", arc)
		}
	}
}

func TestStageGradients(t *testing.T) {
	h := buildHarness(t, testSpec(35))
	tighten(t, h, 0.1)
	e, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	e.Run()
	e.Backward()
	stages := e.StageGradients()
	if len(stages) == 0 {
		t.Fatal("no stage gradients")
	}
	numCells := h.b.D.NumCells()
	seen := map[int32]bool{}
	for _, s := range stages {
		if s.Cell < 0 || int(s.Cell) >= numCells {
			t.Fatalf("stage cell %d out of range", s.Cell)
		}
		if s.Grad > 1e-12 {
			t.Fatalf("stage %d positive gradient %v", s.Cell, s.Grad)
		}
		if seen[s.Cell] {
			t.Fatalf("stage %d duplicated", s.Cell)
		}
		seen[s.Cell] = true
	}
}

func TestNetArcGradients(t *testing.T) {
	h := buildHarness(t, testSpec(36))
	tighten(t, h, 0.1)
	e, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	e.Run()
	e.Backward()
	nets := e.NetArcGradients()
	if len(nets) == 0 {
		t.Fatal("no net arc gradients")
	}
	for _, g := range nets {
		if e.st.ArcKind[g.Arc] != 1 {
			t.Fatalf("arc %d reported as net arc but isn't", g.Arc)
		}
		if g.Grad >= 0 {
			t.Fatalf("net arc %d gradient %v not negative", g.Arc, g.Grad)
		}
		if f, to := e.st.ArcFrom[g.Arc], e.st.ArcTo[g.Arc]; f != g.From || to != g.To {
			t.Fatalf("net arc %d endpoint mismatch", g.Arc)
		}
	}
}

func TestBackwardSubcriticalPathsGetGradientWithLargeTau(t *testing.T) {
	// With a large temperature, merge points spread gradient across inputs,
	// so strictly more arcs receive gradient than with a cold temperature.
	h := buildHarness(t, testSpec(37))
	tighten(t, h, 0.1)
	count := func(tau float64) int {
		e, _ := NewEngine(h.tab, Options{TopK: 1, Tau: tau, Workers: 1})
		e.Run()
		e.Backward()
		n := 0
		for arc := int32(0); arc < int32(e.NumArcs()); arc++ {
			if math.Abs(e.TimingGradient(arc)) > 1e-9 {
				n++
			}
		}
		return n
	}
	cold, hot := count(0.001), count(50)
	if hot <= cold {
		t.Errorf("hot tau should spread gradient to more arcs: cold=%d hot=%d", cold, hot)
	}
}

func TestGradientIdentifiesCriticalCell(t *testing.T) {
	// The stage with the largest |gradient| must lie on a violating path:
	// speeding it up must improve (raise) TNS.
	h := buildHarness(t, testSpec(38))
	tighten(t, h, 0.1)
	e, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	e.Run()
	base := e.TNS()
	e.Backward()
	stages := e.StageGradients()
	var worst StageGradient
	for _, s := range stages {
		if s.Grad < worst.Grad {
			worst = s
		}
	}
	// Speed up every arc of that cell by 5%.
	for arc := int32(0); arc < int32(e.NumArcs()); arc++ {
		isOwn := e.st.ArcKind[arc] != 1 && e.st.ArcCell[arc] == worst.Cell
		if !isOwn {
			continue
		}
		for rf := 0; rf < 2; rf++ {
			d := e.ArcDelay(arc, rf)
			e.SetArcDelay(arc, rf, num.Dist{Mean: 0.95 * d.Mean, Std: d.Std})
		}
	}
	e.Run()
	if e.TNS() <= base {
		t.Errorf("speeding up the top-gradient cell did not improve TNS: %v -> %v", base, e.TNS())
	}
	_ = liberty.Rise
}

func TestWNSWeights(t *testing.T) {
	h := buildHarness(t, testSpec(43))
	tighten(t, h, 0.1)
	e, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.01, Workers: 1})
	e.Run()
	w := e.WNSWeights(5)
	var sum float64
	worstI, worstW := -1, 0.0
	for i, v := range w {
		if v < 0 {
			t.Fatalf("negative weight at %d", i)
		}
		sum += v
		if v > worstW {
			worstI, worstW = i, v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
	// The heaviest weight must sit on the worst endpoint.
	slacks := e.Slacks()
	for i, s := range slacks {
		if s < slacks[worstI]-1e-9 {
			t.Fatalf("endpoint %d (slack %v) worse than weighted-worst %d (%v)", i, s, worstI, slacks[worstI])
		}
	}
}

func TestWNSWeightsNoViolations(t *testing.T) {
	h := buildHarness(t, testSpec(44))
	for i := range h.tab.EPs {
		h.tab.EPs[i].BaseReqRise += 1e6
		h.tab.EPs[i].BaseReqFall += 1e6
	}
	e, _ := NewEngine(h.tab, Options{TopK: 1, Workers: 1})
	e.Run()
	for i, v := range e.WNSWeights(5) {
		if v != 0 {
			t.Fatalf("weight %d nonzero without violations", i)
		}
	}
}

func TestBackwardWeightedWNSFiniteDifference(t *testing.T) {
	// Verify d(softWNS)/d(arc mean) against finite differences.
	h := buildHarness(t, testSpec(45))
	tighten(t, h, 0.1)
	e, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.001, Workers: 1})
	e.Run()
	const tauWNS = 8.0
	softWNS := func() float64 {
		e.Run()
		var minS float64 = math.Inf(1)
		var ss []float64
		for i := range e.Endpoints() {
			s, sp, _ := e.top.setupSlack(0, int32(i), 1)
			if sp == noSP {
				continue
			}
			ss = append(ss, s)
			if s < minS {
				minS = s
			}
		}
		var sum float64
		for _, s := range ss {
			sum += math.Exp((minS - s) / tauWNS)
		}
		return minS - tauWNS*math.Log(sum) // note: -tau*logsumexp(-s/tau)
	}
	e.Run()
	e.BackwardWeighted(e.WNSWeights(tauWNS))

	const hstep = 0.05
	checked := 0
	for arc := int32(0); arc < int32(e.NumArcs()) && checked < 8; arc++ {
		for rf := 0; rf < 2; rf++ {
			g := e.ArcGradMean(arc, rf)
			if math.Abs(g) < 0.2 {
				continue
			}
			orig := e.ArcDelay(arc, rf)
			e.SetArcDelay(arc, rf, num.Dist{Mean: orig.Mean + hstep, Std: orig.Std})
			up := softWNS()
			e.SetArcDelay(arc, rf, num.Dist{Mean: orig.Mean - hstep, Std: orig.Std})
			dn := softWNS()
			e.SetArcDelay(arc, rf, orig)
			e.Run()
			fd := (up - dn) / (2 * hstep)
			if math.Abs(fd-g) > 0.2*math.Abs(g)+0.05 {
				t.Errorf("arc %d rf %d: wns fd %v vs grad %v", arc, rf, fd, g)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no arcs with significant WNS gradient")
	}
}

func TestBackwardParallelApproximatesSerial(t *testing.T) {
	// The parallel backward uses atomic float adds whose accumulation order
	// is nondeterministic; gradients must agree with the serial pass to
	// floating-point accumulation noise.
	h := buildHarness(t, testSpec(46))
	tighten(t, h, 0.1)
	es, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.5, Workers: 1})
	ep, _ := NewEngine(h.tab, Options{TopK: 1, Tau: 0.5, Workers: 4})
	es.Run()
	es.Backward()
	ep.Run()
	ep.Backward()
	for arc := int32(0); arc < int32(es.NumArcs()); arc++ {
		gs, gp := es.TimingGradient(arc), ep.TimingGradient(arc)
		if math.Abs(gs-gp) > 1e-9*(1+math.Abs(gs)) {
			t.Fatalf("arc %d: serial %v vs parallel %v", arc, gs, gp)
		}
	}
}
