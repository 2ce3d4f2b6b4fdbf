package topo

// Differential suite for structural ECOs. The correctness contract: a
// session's working engine after any sequence of Apply batches is
// *bit-identical* — endpoint slacks, hold slacks, WNS/TNS, Top-K queues,
// timing gradients — to a cold core.Compile + NewEngineFromState + Run over
// the session's working tables, at any worker count (ci.sh runs this package
// under -race as well). A session over a scenario engine is held to the same
// standard per lane against a cold core.NewEngineScenarios, and its unit lane
// against a cold single-lane engine.

import (
	"math"
	"slices"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/num"
	"insta/internal/refsta"
)

func buildTables(t testing.TB, seed int64) *circuitops.Tables {
	t.Helper()
	return specTables(t, bench.Spec{
		Name: "topotest", Seed: seed, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 8, Layers: 4, Width: 8,
		CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
		Period: 1, Uncertainty: 10, Die: 80, VioFrac: 0.1,
	})
}

// specTables generates spec and extracts its tables through the reference
// engine (internal/exp does the same, but reaches this package through sizing
// and server, so it cannot be imported here).
func specTables(t testing.TB, spec bench.Spec) *circuitops.Tables {
	t.Helper()
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return circuitops.Extract(ref)
}

// netArcs returns the ids of positive-unate net arcs, the insertion targets.
func netArcs(tab *circuitops.Tables) []int32 {
	var out []int32
	for i := range tab.Arcs {
		if tab.Arcs[i].Kind == 1 {
			out = append(out, int32(i))
		}
	}
	return out
}

// mustEngine builds and fully evaluates a cold engine over tab.
func mustEngine(t *testing.T, tab *circuitops.Tables, opt core.Options) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.HoldEnabled() {
		e.EvalHoldSlacks()
	}
	return e
}

// assertEnginesIdentical compares got against a cold oracle over tab:
// slacks, hold slacks, WNS/TNS, every endpoint's Top-K queues, and the
// backward pass's per-arc timing gradients.
func assertEnginesIdentical(t *testing.T, tag string, got *core.Engine, tab *circuitops.Tables, opt core.Options) {
	t.Helper()
	want := mustEngine(t, tab, opt)
	defer want.Close()

	gs, ws := got.Slacks(), want.Slacks()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d endpoints != cold %d", tag, len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: ep %d slack %v != cold %v", tag, i, gs[i], ws[i])
		}
	}
	if got.WNS() != want.WNS() || got.TNS() != want.TNS() {
		t.Fatalf("%s: WNS/TNS %v/%v != cold %v/%v", tag, got.WNS(), got.TNS(), want.WNS(), want.TNS())
	}
	if want.HoldEnabled() {
		gh, wh := got.EvalHoldSlacks(), want.EvalHoldSlacks()
		for i := range wh {
			if gh[i] != wh[i] {
				t.Fatalf("%s: ep %d hold slack %v != cold %v", tag, i, gh[i], wh[i])
			}
		}
	}
	for _, p := range want.Endpoints() {
		for rf := 0; rf < 2; rf++ {
			gm, gsd, gsp := got.TopEntries(rf, p)
			wm, wsd, wsp := want.TopEntries(rf, p)
			for kk := range wsp {
				if gm[kk] != wm[kk] || gsd[kk] != wsd[kk] || gsp[kk] != wsp[kk] {
					t.Fatalf("%s: pin %d rf %d slot %d: queue mismatch", tag, p, rf, kk)
				}
			}
		}
	}
	got.Backward()
	want.Backward()
	for a := 0; a < want.NumArcs(); a++ {
		if gg, wg := got.TimingGradient(int32(a)), want.TimingGradient(int32(a)); gg != wg {
			t.Fatalf("%s: arc %d gradient %v != cold %v", tag, a, gg, wg)
		}
	}
}

func bufDelay(m, s float64) [2]num.Dist {
	return [2]num.Dist{{Mean: m, Std: s}, {Mean: m * 1.05, Std: s}}
}

func TestInsertBufferDifferential(t *testing.T) {
	tab := buildTables(t, 31)
	for _, workers := range []int{1, 2, 4} {
		opt := core.Options{TopK: 8, Hold: true, Workers: workers}
		base := mustEngine(t, tab, opt)
		s, err := NewSession(base)
		if err != nil {
			t.Fatal(err)
		}
		nets := netArcs(tab)
		ops := []Op{
			InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0),
			InsertBuffer(nets[len(nets)/2], 7, bufDelay(2.5, 0.15), 0.3),
			InsertBuffer(nets[len(nets)-1], -1, bufDelay(4, 0.3), 0.7),
		}
		res, err := s.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if res.NewPins != 6 || res.Inserted != 3 {
			t.Fatalf("unexpected result %+v", res)
		}
		if st := s.Stats(); st.Relevel.Region <= 0 || st.Relevel.Region >= tab.NumPins {
			t.Fatalf("re-levelized region %d not localized (pins %d)", st.Relevel.Region, tab.NumPins)
		}
		assertEnginesIdentical(t, "insert", s.Engine(), s.Tables(), opt)
		s.Close()
		base.Close()
	}
}

func TestRemoveBufferDifferential(t *testing.T) {
	tab := buildTables(t, 32)
	opt := core.Options{TopK: 8, Hold: true, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Insert a buffer, then remove it in a second batch: the remove batch
	// must restore the through-wire's timing, renumber nothing, and leave a
	// graph that cold-compiles to the same bits as the session's preview.
	target := netArcs(tab)[2]
	orig := tab.Arcs[target]
	if _, err := s.Apply([]Op{InsertBuffer(target, 7, bufDelay(3, 0.2), 0)}); err != nil {
		t.Fatal(err)
	}
	// The inserted buffer's cell arc is the second-to-last arc.
	cellArc := int32(len(s.Tables().Arcs) - 2)
	if s.Tables().Arcs[cellArc].Kind != 0 {
		t.Fatalf("arc %d is not the inserted cell arc", cellArc)
	}
	before := append([]circuitops.ArcRow(nil), s.Tables().Arcs...)
	res, err := s.Apply([]Op{RemoveBuffer(cellArc)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Changed, []int32{cellArc + 1}) || !slices.Equal(res.Seeds, []int32{orig.To}) {
		t.Fatalf("bypass changed arcs %v and seeded pins %v, want the sink wire %d and its sink %d", res.Changed, res.Seeds, cellArc+1, orig.To)
	}
	after := s.Tables().Arcs
	if len(after) != len(before) {
		t.Fatalf("removal changed the arc count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if int32(i) != cellArc+1 && after[i] != before[i] {
			t.Fatalf("arc %d is not the buffer's sink wire and was rewritten: %+v -> %+v", i, before[i], after[i])
		}
	}
	if w := after[cellArc+1]; w.From != orig.From || w.To != orig.To || w.Net != orig.Net {
		t.Fatalf("sink wire became %d->%d (net %d), want the original %d->%d (net %d)", w.From, w.To, w.Net, orig.From, orig.To, orig.Net)
	}
	assertEnginesIdentical(t, "remove", s.Engine(), s.Tables(), opt)

	// A bypassed buffer cannot be removed twice, and its stub stays addressable.
	if _, err := s.Apply([]Op{RemoveBuffer(cellArc)}); err == nil {
		t.Fatal("removing a bypassed buffer again was accepted")
	}
	slacks := append([]float64(nil), s.Engine().Slacks()...)
	if _, err := s.Apply([]Op{Annotate(cellArc, bufDelay(50, 5)), Annotate(target, bufDelay(50, 5))}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Engine().Slacks(), slacks) {
		t.Fatal("annotating a bypassed buffer's stub moved an endpoint slack")
	}
	assertEnginesIdentical(t, "stub annotated", s.Engine(), s.Tables(), opt)

	// Pin count never shrinks.
	if s.Tables().NumPins != tab.NumPins+2 {
		t.Fatalf("pin count %d, want %d", s.Tables().NumPins, tab.NumPins+2)
	}
}

func TestAnnotateOnStructuralSessionDifferential(t *testing.T) {
	tab := buildTables(t, 33)
	opt := core.Options{TopK: 8, Hold: true, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Apply([]Op{InsertBuffer(netArcs(tab)[0], 7, bufDelay(3, 0.2), 0)}); err != nil {
		t.Fatal(err)
	}
	// Annotate a few arcs, including one appended by the insert.
	newArc := int32(len(s.Tables().Arcs) - 1)
	if _, err := s.Apply([]Op{Annotate(5, bufDelay(7, 0.4)), Annotate(newArc, bufDelay(1.5, 0.1))}); err != nil {
		t.Fatal(err)
	}
	assertEnginesIdentical(t, "annotate", s.Engine(), s.Tables(), opt)
}

func TestMixedBatchWithAnnotateOps(t *testing.T) {
	tab := buildTables(t, 34)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nets := netArcs(tab)
	ops := []Op{
		InsertBuffer(nets[1], 7, bufDelay(2, 0.1), 0),
		Annotate(nets[3], bufDelay(6, 0.3)),
		Annotate(0, bufDelay(4, 0.2)),
	}
	if _, err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	assertEnginesIdentical(t, "mixed", s.Engine(), s.Tables(), opt)
}

// TestBatchedEngineDifferential: the one working engine of a session opened
// over a scenario engine stays, through insert / remove / annotate batches,
// bit-identical in every lane to a cold core.NewEngineScenarios over the
// working tables —
// and its unit lane (tt) to a cold single-lane engine, the figure a daemon
// serves as nominal.
func TestBatchedEngineDifferential(t *testing.T) {
	tab := buildTables(t, 35)
	scns := core.DefaultScenarios()
	for _, workers := range []int{1, 4} {
		opt := core.Options{TopK: 8, Hold: true, Workers: workers}
		bbase, err := core.NewEngineScenarios(tab, scns, opt)
		if err != nil {
			t.Fatal(err)
		}
		bbase.Run()
		bbase.RefreshHoldSlacks()
		s, err := NewSession(bbase)
		if err != nil {
			t.Fatal(err)
		}
		check := func(tag string) {
			t.Helper()
			// Per-scenario bit-identity against a cold batched engine over
			// the session's working tables.
			cold, err := core.NewEngineScenarios(s.Tables(), scns, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			cold.Run()
			cold.RefreshHoldSlacks()
			got := s.Engine()
			for sc := range scns {
				gs, ws := got.LaneSlacks(sc), cold.LaneSlacks(sc)
				for i := range ws {
					if gs[i] != ws[i] {
						t.Fatalf("%s workers=%d scenario %d ep %d: %v != cold %v", tag, workers, sc, i, gs[i], ws[i])
					}
				}
				gh, wh := got.LaneHoldSlacks(sc), cold.LaneHoldSlacks(sc)
				for i := range wh {
					if gh[i] != wh[i] {
						t.Fatalf("%s workers=%d scenario %d ep %d: hold %v != cold %v", tag, workers, sc, i, gh[i], wh[i])
					}
				}
			}
			nominal := mustEngine(t, s.Tables(), opt)
			defer nominal.Close()
			tt := got.LaneSlacks(core.UnitLane(got.Scenarios()))
			for i, w := range nominal.Slacks() {
				if tt[i] != w {
					t.Fatalf("%s workers=%d ep %d: unit lane %v != cold single-lane %v", tag, workers, i, tt[i], w)
				}
			}
		}
		nets := netArcs(tab)
		if _, err := s.Apply([]Op{
			InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0),
			InsertBuffer(nets[4], 7, bufDelay(2, 0.1), 0.4),
		}); err != nil {
			t.Fatal(err)
		}
		if s.Engine() == bbase {
			t.Fatal("apply did not create a working engine")
		}
		check("insert")
		cellArc := int32(len(s.Tables().Arcs) - 2)
		if s.Tables().Arcs[cellArc].Kind != 0 {
			t.Fatalf("arc %d is not a cell arc", cellArc)
		}
		if _, err := s.Apply([]Op{RemoveBuffer(cellArc)}); err != nil {
			t.Fatal(err)
		}
		check("remove")
		if _, err := s.Apply([]Op{Annotate(nets[2], bufDelay(5, 0.25))}); err != nil {
			t.Fatal(err)
		}
		check("annotate")
		s.Close()
		bbase.Close()
	}
}

func TestApplyAtomicOnInvalidBatch(t *testing.T) {
	tab := buildTables(t, 36)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nets := netArcs(tab)
	before := s.Tables()
	beforeEng := s.Engine()
	// Valid insert + claim conflict on the same arc: whole batch rejected.
	bad := []Op{
		InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0),
		Annotate(nets[0], bufDelay(1, 0.1)),
	}
	if _, err := s.Apply(bad); err == nil {
		t.Fatal("conflicting batch accepted")
	}
	if s.Tables() != before || s.Engine() != beforeEng || s.Edited() {
		t.Fatal("failed batch mutated the session")
	}
	// Bad arc id, bad fraction, wrong arc kind, cell arc removal shape.
	for _, ops := range [][]Op{
		{InsertBuffer(int32(len(tab.Arcs)), 7, bufDelay(1, 0.1), 0)},
		{InsertBuffer(nets[0], 7, bufDelay(1, 0.1), 1.5)},
		{RemoveBuffer(nets[0])},
		{Annotate(-1, bufDelay(1, 0.1))},
		{},
	} {
		if _, err := s.Apply(ops); err == nil {
			t.Fatalf("invalid batch %+v accepted", ops)
		}
	}
	if s.Edited() {
		t.Fatal("rejected batches left the session edited")
	}
}

func TestResetRestoresBase(t *testing.T) {
	tab := buildTables(t, 37)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	baseWNS := base.WNS()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply([]Op{InsertBuffer(netArcs(tab)[0], 7, bufDelay(30, 1), 0)}); err != nil {
		t.Fatal(err)
	}
	if s.Engine() == base {
		t.Fatal("apply did not create a working engine")
	}
	s.Reset()
	if s.Engine() != base || s.Edited() {
		t.Fatal("reset did not restore the base")
	}
	if base.WNS() != baseWNS {
		t.Fatalf("base WNS moved across preview+reset: %v != %v", base.WNS(), baseWNS)
	}
}

func TestDetachTransfersOwnership(t *testing.T) {
	tab := buildTables(t, 38)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Detach(); err == nil {
		t.Fatal("detach with no edits accepted")
	}
	if _, err := s.Apply([]Op{InsertBuffer(netArcs(tab)[0], 7, bufDelay(3, 0.2), 0)}); err != nil {
		t.Fatal(err)
	}
	d, err := s.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if d.Engine == base || d.Tables == nil || d.State == nil {
		t.Fatal("detached set incomplete")
	}
	// Close after detach must not kill the detached engine.
	s.Close()
	if got := d.Engine.WNS(); got != d.Engine.WNS() {
		t.Fatal("detached engine unusable after session close")
	}
	assertEnginesIdentical(t, "detached", d.Engine, d.Tables, opt)
	d.Engine.Close()
}

func TestRepeatedEditsStayIdentical(t *testing.T) {
	// A chain of structural batches — insert, annotate, insert, remove —
	// must stay bit-identical to the cold oracle at every step.
	tab := buildTables(t, 39)
	opt := core.Options{TopK: 8, Hold: true, Workers: 4}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nets := netArcs(tab)
	if _, err := s.Apply([]Op{InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0)}); err != nil {
		t.Fatal(err)
	}
	assertEnginesIdentical(t, "step1", s.Engine(), s.Tables(), opt)

	if _, err := s.Apply([]Op{Annotate(nets[1], bufDelay(5, 0.25))}); err != nil {
		t.Fatal(err)
	}
	assertEnginesIdentical(t, "step2", s.Engine(), s.Tables(), opt)

	if _, err := s.Apply([]Op{InsertBuffer(nets[2], 7, bufDelay(2, 0.1), 0.25)}); err != nil {
		t.Fatal(err)
	}
	assertEnginesIdentical(t, "step3", s.Engine(), s.Tables(), opt)

	cellArc := int32(len(s.Tables().Arcs) - 2)
	if _, err := s.Apply([]Op{RemoveBuffer(cellArc)}); err != nil {
		t.Fatal(err)
	}
	assertEnginesIdentical(t, "step4", s.Engine(), s.Tables(), opt)
}

// TestApplyBeatsColdRebuild holds the subsystem's reason to exist on a real
// block: a steady-state edit batch on a warmed session — two buffers spliced
// into net arcs plus one cell-arc re-annotation, the shape one optimizer step
// produces — must beat the cold alternative (compile the edited tables, build
// an engine, propagate in full) by an order of magnitude (25-32x measured).
// That the two agree bit for bit is TestRepeatedEditsStayIdentical's job. The
// benchmark has no rung for this ratio; this floor goes when it gets one.
func TestApplyBeatsColdRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("times block-1")
	}
	spec, err := bench.BlockSpec("block-1")
	if err != nil {
		t.Fatal(err)
	}
	tab := specTables(t, spec)
	opt := core.Options{TopK: 8, Workers: 4}
	base := mustEngine(t, tab, opt)
	defer base.Close()

	// Targets sit in the deeper half of the level schedule, where
	// endpoint-driven sizing candidates live; an edit at the input boundary
	// would re-level (correctly, but unrepresentatively) a quarter of the
	// design.
	deep := func(kind uint8, frac float64) int32 {
		want := int32(float64(base.NumLevels()) * frac)
		best, bestLv := int32(-1), int32(-1)
		for i := range tab.Arcs {
			if lv := base.Level(tab.Arcs[i].To); tab.Arcs[i].Kind == kind && lv <= want && lv > bestLv {
				best, bestLv = int32(i), lv
			}
		}
		return best
	}
	netA, netB, cellArc := deep(1, 0.60), deep(1, 0.75), deep(0, 0.70)
	if netA < 0 || netB < 0 || netA == netB || cellArc < 0 {
		t.Fatalf("no suitable edit targets (net %d/%d, cell %d)", netA, netB, cellArc)
	}
	ann := [2]num.Dist{base.ArcDelay(cellArc, 0), base.ArcDelay(cellArc, 1)}
	ann[0].Mean *= 1.05
	ann[1].Mean *= 1.05
	// Insert-only, so arc ids stay valid and every Apply splices fresh buffers:
	// the session keeps growing as an optimizer's would.
	ops := []Op{
		InsertBuffer(netA, -1, bufDelay(5, 0.5), 0.5),
		InsertBuffer(netB, -1, bufDelay(5, 0.5), 0.4),
		Annotate(cellArc, ann),
	}
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply(ops); err != nil { // the first Apply allocates the working engine
		t.Fatal(err)
	}

	// Interleaved best-of-7: both sides see the same background load.
	timed := func(fn func()) time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	inc, cold := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 7; i++ {
		inc = min(inc, timed(func() {
			if _, err := s.Apply(ops); err != nil {
				t.Fatal(err)
			}
		}))
		cold = min(cold, timed(func() { mustEngine(t, s.Tables(), opt).Close() }))
	}
	t.Logf("block-1: Apply %v vs cold rebuild %v — %.1fx (relevel %+v)",
		inc, cold, float64(cold)/float64(inc), s.Stats().Relevel)
	if cold < 10*inc {
		t.Errorf("steady-state Apply %v is only %.1fx faster than a cold rebuild %v, want >= 10x",
			inc, float64(cold)/float64(inc), cold)
	}
}
