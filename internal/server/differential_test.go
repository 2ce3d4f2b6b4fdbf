package server_test

// Nominal-lane differential: a daemon serves one lane-strided engine and reads
// everything "nominal" from its unit-scale lane. This suite runs one seeded
// session sequence through a manager over batch{ss,tt,ff} — where lane 0 is
// ss, so a lane-0 shorthand anywhere in the serving stack shows up as a
// mismatch — and through a manager over a bare single-lane engine, and after
// every step demands bit-for-bit agreement of the top-level WNS/TNS, the full
// nominal slack vectors and the /gradients ranking. The multi-corner
// manager's per-scenario rows are held to independent single-lane engines over
// core.ScaleTables of the tables the step should have produced.

import (
	"math"
	"math/rand"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
	"insta/internal/server"
)

// diffPair is the two managers under comparison and, per logical session,
// the pair of sessions opened on them.
type diffPair struct {
	t      *testing.T
	opt    core.Options
	single *server.Manager
	multi  *server.Manager
	scns   []core.Scenario
}

type sessPair struct{ single, multi *server.Session }

func (p *diffPair) create() sessPair {
	p.t.Helper()
	a, err := p.single.Create()
	if err != nil {
		p.t.Fatal(err)
	}
	b, err := p.multi.Create()
	if err != nil {
		p.t.Fatal(err)
	}
	return sessPair{a, b}
}

// randomArcs draws a seeded annotation batch over arcs [0, limit): a nominal
// delay per transition, perturbed from what the model tables hold.
func randomArcs(rng *rand.Rand, tab *circuitops.Tables, limit, n int) []server.ArcECO {
	out := make([]server.ArcECO, 0, n)
	seen := map[int32]bool{}
	for len(out) < n {
		a := int32(rng.Intn(limit))
		if seen[a] {
			continue
		}
		seen[a] = true
		row, f := tab.Arcs[a], 0.8+0.5*rng.Float64()
		out = append(out, server.ArcECO{
			Arc:  a,
			Rise: num.Dist{Mean: row.MeanRise * f, Std: row.StdRise},
			Fall: num.Dist{Mean: row.MeanFall * f, Std: row.StdFall * (0.9 + 0.2*rng.Float64())},
		})
	}
	return out
}

// annotate returns a copy of tab with the batches applied in order — the
// tables a session holding them (or a base that committed them) must match.
func annotate(tab *circuitops.Tables, batches ...[]server.ArcECO) *circuitops.Tables {
	out := *tab
	out.Arcs = append([]circuitops.ArcRow(nil), tab.Arcs...)
	for _, b := range batches {
		for _, a := range b {
			r := &out.Arcs[a.Arc]
			r.MeanRise, r.StdRise = a.Rise.Mean, a.Rise.Std
			r.MeanFall, r.StdFall = a.Fall.Mean, a.Fall.Std
		}
	}
	return &out
}

func sameFloats(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] %v != %v", tag, i, got[i], want[i])
		}
	}
}

// checkNominal compares the two managers' nominal answers for one step: the
// results' top-level figures, the sessions' full nominal slack vectors and
// the single-lane changed set being covered by the multi-lane one.
func (p *diffPair) checkNominal(tag string, s sessPair, rs, rm *server.ECOResult) {
	t := p.t
	t.Helper()
	if rs.WNS != rm.WNS || rs.TNS != rm.TNS || rs.DeltaWNS != rm.DeltaWNS || rs.DeltaTNS != rm.DeltaTNS {
		t.Fatalf("%s: nominal WNS/TNS (Δ) single %v/%v (%v/%v) != multi %v/%v (%v/%v)", tag,
			rs.WNS, rs.TNS, rs.DeltaWNS, rs.DeltaTNS, rm.WNS, rm.TNS, rm.DeltaWNS, rm.DeltaTNS)
	}
	if rs.Epoch != rm.Epoch || rs.TouchedArcs != rm.TouchedArcs {
		t.Fatalf("%s: epoch/touched single %d/%d != multi %d/%d", tag, rs.Epoch, rs.TouchedArcs, rm.Epoch, rm.TouchedArcs)
	}
	if len(rs.Scenarios) != 0 || len(rm.Scenarios) != len(p.scns)+1 {
		t.Fatalf("%s: scenario rows single %d multi %d", tag, len(rs.Scenarios), len(rm.Scenarios))
	}
	// `changed` lists what the overlay re-derived: every endpoint the unit
	// lane alone moved is in the S-lane cone too, with the same figures.
	inMulti := map[int]server.EndpointSlack{}
	for _, c := range rm.Changed {
		inMulti[c.Endpoint] = c
	}
	for _, c := range rs.Changed {
		if m, ok := inMulti[c.Endpoint]; !ok || m != c {
			t.Fatalf("%s: changed endpoint %+v of the single-lane view is %+v (present %v) in the multi-lane one", tag, c, m, ok)
		}
	}
	vs, err := s.single.Slacks()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := s.multi.Slacks()
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, tag+": nominal session slacks", vm, vs)
}

// checkBase compares the committed bases: figures, slack vectors, gradients.
func (p *diffPair) checkBase(tag string) {
	t := p.t
	t.Helper()
	if p.single.BaseWNS() != p.multi.BaseWNS() || p.single.BaseTNS() != p.multi.BaseTNS() {
		t.Fatalf("%s: base WNS/TNS single %v/%v != multi %v/%v", tag,
			p.single.BaseWNS(), p.single.BaseTNS(), p.multi.BaseWNS(), p.multi.BaseTNS())
	}
	sameFloats(t, tag+": base slacks", p.multi.BaseSlacks(), p.single.BaseSlacks())
	gs, gm := p.single.Gradients(0), p.multi.Gradients(0)
	if len(gs) == 0 || len(gs) != len(gm) {
		t.Fatalf("%s: gradient stages single %d multi %d", tag, len(gs), len(gm))
	}
	for i := range gs {
		if gs[i] != gm[i] {
			t.Fatalf("%s: gradient rank %d single %+v != multi %+v", tag, i, gs[i], gm[i])
		}
	}
}

// readSession and readBase adapt a session and the committed base to the
// one-lane reader checkScenarios takes.
func readSession(s *server.Session) func(name string) ([]float64, error) {
	return func(name string) ([]float64, error) { return s.ScenarioSlacksInto(name, nil) }
}

func readBase(m *server.Manager) func(name string) ([]float64, error) {
	return func(name string) ([]float64, error) {
		v, err := m.BaseViewInto(name, nil)
		return v.Slacks, err
	}
}

// checkScenarios holds the multi-corner view (rows and per-scenario slack
// vectors as read by read) to independent single-lane engines over
// ScaleTables(model, scenario).
func (p *diffPair) checkScenarios(tag string, model *circuitops.Tables, rows []server.ScenarioView,
	read func(name string) ([]float64, error)) {
	t := p.t
	t.Helper()
	var merged []float64
	for i, scn := range p.scns {
		e, err := core.NewEngine(core.ScaleTables(model, scn), p.opt)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Run()
		wns, tns := e.WNS(), e.TNS()
		e.Close()
		if rows[i].Name != scn.Name || rows[i].WNS != wns || rows[i].TNS != tns {
			t.Fatalf("%s: row %d %+v, independent %s engine says %v/%v", tag, i, rows[i], scn.Name, wns, tns)
		}
		got, err := read(scn.Name)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, tag+": scenario "+scn.Name+" slacks", got, want)
		if merged == nil {
			merged = append(merged, want...)
		}
		for j, sl := range want {
			merged[j] = math.Min(merged[j], sl)
		}
	}
	m := rows[len(p.scns)]
	if m.Name != "merged" || m.WNS != core.WNS(merged) || m.TNS != core.TNS(merged) {
		t.Fatalf("%s: merged row %+v, independent engines say %v/%v", tag, m, core.WNS(merged), core.TNS(merged))
	}
	got, err := read("merged")
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, tag+": merged slacks", got, merged)
}

func TestNominalLaneDifferential(t *testing.T) {
	s := buildSetup(t, "des")
	opt := core.Options{TopK: 6, Workers: 2, Tau: 0.05}
	e, err := core.NewEngine(s.Tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	be, err := core.NewEngineScenarios(s.Tab, core.DefaultScenarios(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if core.UnitLane(be.Scenarios()) == 0 {
		t.Fatal("lane 0 is the unit lane: the test cannot tell a lane-0 shorthand from the nominal view")
	}
	p := &diffPair{
		t: t, opt: opt, scns: be.Scenarios(),
		single: server.NewManager(e, s.Ref, server.Options{}),
		multi:  server.NewManager(be, s.Ref, server.Options{}),
	}
	defer p.single.Close()
	defer p.multi.Close()
	rng := rand.New(rand.NewSource(20250927))
	nArcs := len(s.Tab.Arcs)

	// eco applies one annotation batch to both sessions of a pair and checks
	// the step against model, the tables the sessions should now see.
	eco := func(tag string, sp sessPair, arcs []server.ArcECO, model *circuitops.Tables) {
		t.Helper()
		rs, err := sp.single.ApplyECO(server.ECORequest{Arcs: arcs})
		if err != nil {
			t.Fatal(err)
		}
		rm, err := sp.multi.ApplyECO(server.ECORequest{Arcs: arcs})
		if err != nil {
			t.Fatal(err)
		}
		p.checkNominal(tag, sp, rs, rm)
		p.checkScenarios(tag, model, rm.Scenarios, readSession(sp.multi))
	}
	// view re-reads both sessions (rebasing them if the base moved).
	view := func(tag string, sp sessPair, model *circuitops.Tables) {
		t.Helper()
		rs, err := sp.single.Result()
		if err != nil {
			t.Fatal(err)
		}
		rm, err := sp.multi.Result()
		if err != nil {
			t.Fatal(err)
		}
		p.checkNominal(tag, sp, rs, rm)
		p.checkScenarios(tag, model, rm.Scenarios, readSession(sp.multi))
	}
	// commit commits both sessions and checks the new bases against model.
	commit := func(tag string, sp sessPair, model *circuitops.Tables) {
		t.Helper()
		rs, err := sp.single.Commit()
		if err != nil {
			t.Fatal(err)
		}
		rm, err := sp.multi.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if !rs.Committed || !rm.Committed {
			t.Fatalf("%s: commit results not marked committed", tag)
		}
		p.checkNominal(tag, sp, rs, rm)
		p.checkBase(tag)
		// Commit rows carry the violation counts the preview rows omit.
		rows := append([]server.ScenarioView(nil), rm.Scenarios...)
		for i := range rows {
			rows[i].Violations = 0
		}
		p.checkScenarios(tag, model, rows, readBase(p.multi))
	}

	base := s.Tab
	p.checkBase("boot")

	// Annotation ECOs, stacked, then rolled back.
	sA := p.create()
	b1 := randomArcs(rng, base, nArcs, 12)
	eco("eco 1", sA, b1, annotate(base, b1))
	b2 := randomArcs(rng, base, nArcs, 7)
	eco("eco 2", sA, b2, annotate(base, b1, b2))
	if err := sA.single.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := sA.multi.Rollback(); err != nil {
		t.Fatal(err)
	}
	view("rollback", sA, base)

	// Two sessions; A commits, B rebases across that commit, then commits.
	sB := p.create()
	b3, b4 := randomArcs(rng, base, nArcs, 9), randomArcs(rng, base, nArcs, 9)
	eco("eco 3 (A)", sA, b3, annotate(base, b3))
	eco("eco 4 (B)", sB, b4, annotate(base, b4))
	base = annotate(base, b3)
	commit("commit A", sA, base)
	view("rebase B over A", sB, annotate(base, b4))
	base = annotate(base, b4)
	commit("commit B", sB, base)

	// Structural previews: insert a buffer, remove it again, roll back. The
	// per-scenario oracle for edited topology is the cold compile of the
	// tables the single-lane manager's working state exports — checked at the
	// commit below; the previews are checked nominal-to-nominal.
	topo := func(tag string, sp sessPair, req server.TopoRequest) *server.TopoResult {
		t.Helper()
		rs, err := sp.single.ApplyTopo(req)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := sp.multi.ApplyTopo(req)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Inserted != rm.Inserted || rs.Removed != rm.Removed || rs.NewArcs != rm.NewArcs ||
			rs.RelevelLevels != rm.RelevelLevels || rs.RelevelRegion != rm.RelevelRegion {
			t.Fatalf("%s: structural footprint single %+v != multi %+v", tag, rs, rm)
		}
		p.checkNominal(tag, sp, rs.View, rm.View)
		return rm
	}
	sC := p.create()
	ins := topo("buffer preview", sC, server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 2), Frac: 0.4},
	}})
	topo("unbuffer preview", sC, server.TopoRequest{Ops: []server.TopoOp{
		{Op: "unbuffer", Arc: int32(ins.NewArcs[0])},
	}})
	if err := sC.single.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := sC.multi.Rollback(); err != nil {
		t.Fatal(err)
	}
	view("structural rollback", sC, base)

	// Structural commit, with an annotation session holding deltas across it.
	sD := p.create()
	b5 := randomArcs(rng, base, nArcs, 10)
	eco("eco 5 (D)", sD, b5, annotate(base, b5))
	pre := topo("buffer", sC, server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 5)},
	}})
	rs, err := sC.single.Commit()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := sC.multi.Commit()
	if err != nil {
		t.Fatal(err)
	}
	p.checkNominal("structural commit", sC, rs, rm)
	p.checkBase("structural commit")
	// The edited tables, from the single-lane manager: every scenario of the
	// multi-corner base must equal a cold engine over their derated copy, and
	// the preview rows must have said the same before the commit.
	base = p.single.Engine().ExportState().Tables()
	p.checkScenarios("structural commit", base, pre.View.Scenarios, readBase(p.multi))

	// The annotation session re-binds to the replaced engine and commits.
	view("rebind D", sD, annotate(base, b5))
	base = annotate(base, b5)
	commit("commit D", sD, base)
	if p.single.TopoGen() != 1 || p.multi.TopoGen() != 1 || p.single.Epoch() != p.multi.Epoch() {
		t.Fatalf("generations diverged: topoGen %d/%d epoch %d/%d",
			p.single.TopoGen(), p.multi.TopoGen(), p.single.Epoch(), p.multi.Epoch())
	}
}

// TestManagerNeedsUnitLane: a scenario engine with no unit-scale lane has no
// nominal view, and must not be served as if some derated lane were one.
func TestManagerNeedsUnitLane(t *testing.T) {
	s := buildSetup(t, "des")
	scns := core.DefaultScenarios()
	be, err := core.NewEngineScenarios(s.Tab, []core.Scenario{scns[0], scns[2]}, core.Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("NewManager served {ss,ff} without a nominal lane")
		}
	}()
	server.NewManager(be, s.Ref, server.Options{})
}
