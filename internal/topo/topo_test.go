package topo

// Differential suite for structural ECOs. The correctness contract: a
// working engine after any sequence of Edit batches is
// *bit-identical* — endpoint slacks, hold slacks, WNS/TNS, Top-K queues,
// timing gradients — to a cold core.Compile + NewEngineFromState + Run over
// the edited netlist, at any worker count (ci.sh runs this package under -race
// as well). The oracle's netlist is the test's own circuitops.Tables, advanced
// by each accepted batch's Result.Edits (advance); the working state is
// never read back for it. A working engine over a scenario base is held to the same
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

// cloneTables copies tab deeply enough for advance to edit the copy.
func cloneTables(tab *circuitops.Tables) *circuitops.Tables {
	c := *tab
	c.Arcs = slices.Clone(tab.Arcs)
	return &c
}

// advance writes an accepted batch into tab, the test's own copy of the
// working netlist: its edited rows by id (appended ids grow the arc table)
// and its appended pins.
func advance(tab *circuitops.Tables, res *Result) {
	tab.NumPins += res.NewPins
	for _, ed := range res.Edits {
		if n := int(ed.ID) + 1; n > len(tab.Arcs) {
			tab.Arcs = append(tab.Arcs, make([]circuitops.ArcRow, n-len(tab.Arcs))...)
		}
		tab.Arcs[ed.ID] = ed.Row
	}
}

// applyTo edits *e by ops, which must be accepted, and advances tab by the
// batch. A base is never edited: while *e is still base, *e becomes a fork of
// it first, as a session's first structural batch does.
func applyTo(t testing.TB, e **core.Engine, base *core.Engine, tab *circuitops.Tables, ops ...Op) *Result {
	t.Helper()
	if *e == base {
		*e = base.Fork()
	}
	res, err := Edit(*e, ops)
	if err != nil {
		t.Fatal(err)
	}
	advance(tab, res)
	return res
}

// closeWorking closes working engine e unless it is still base.
func closeWorking(e, base *core.Engine) {
	if e != base {
		e.Close()
	}
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
// slacks, critical startpoints, hold slacks, WNS/TNS, every endpoint's Top-K queues, and the
// backward pass's per-arc timing gradients.
func assertEnginesIdentical(t *testing.T, tag string, got *core.Engine, tab *circuitops.Tables, opt core.Options) {
	t.Helper()
	want := mustEngine(t, tab, opt)
	defer want.Close()
	if err := got.ExportState().Validate(); err != nil {
		t.Fatalf("%s: patched state fails Validate: %v", tag, err)
	}

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
	// The critical startpoints and hold slacks are read as the edit left
	// them, not re-evaluated: a reseed re-evaluates only the endpoints its
	// wave changed.
	for i := range ws {
		gsp, grf := got.LaneCriticalStartpoint(0, i)
		wsp, wrf := want.LaneCriticalStartpoint(0, i)
		if gsp != wsp || grf != wrf {
			t.Fatalf("%s: ep %d critical startpoint %d/%d != cold %d/%d", tag, i, gsp, grf, wsp, wrf)
		}
	}
	if want.HoldEnabled() {
		gh, wh := got.LaneHoldSlacks(0), want.EvalHoldSlacks()
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
		eng := base
		nets := netArcs(tab)
		work := cloneTables(tab)
		res := applyTo(t, &eng, base, work,
			InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0),
			InsertBuffer(nets[len(nets)/2], 7, bufDelay(2.5, 0.15), 0.3),
			InsertBuffer(nets[len(nets)-1], -1, bufDelay(4, 0.3), 0.7),
		)
		if res.NewPins != 6 || res.Inserted != 3 {
			t.Fatalf("unexpected result %+v", res)
		}
		if res.Relevel.Region <= 0 || res.Relevel.Region >= tab.NumPins {
			t.Fatalf("re-levelized region %d not localized (pins %d)", res.Relevel.Region, tab.NumPins)
		}
		assertEnginesIdentical(t, "insert", eng, work, opt)
		eng.Close()
		base.Close()
	}
}

func TestRemoveBufferDifferential(t *testing.T) {
	tab := buildTables(t, 32)
	opt := core.Options{TopK: 8, Hold: true, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	eng := base
	defer func() { closeWorking(eng, base) }()

	// Insert a buffer, then remove it in a second batch: the remove batch
	// must restore the through-wire's timing, renumber nothing, and leave a
	// graph that cold-compiles to the same bits as the working engine.
	target := netArcs(tab)[2]
	orig := tab.Arcs[target]
	work := cloneTables(tab)
	applyTo(t, &eng, base, work, InsertBuffer(target, 7, bufDelay(3, 0.2), 0))
	// The inserted buffer's cell arc is the second-to-last arc.
	cellArc := int32(len(work.Arcs) - 2)
	if work.Arcs[cellArc].Kind != 0 {
		t.Fatalf("arc %d is not the inserted cell arc", cellArc)
	}
	before := slices.Clone(work.Arcs)
	res := applyTo(t, &eng, base, work, RemoveBuffer(cellArc))
	if len(res.Edits) != 1 || res.Edits[0].ID != cellArc+1 || !slices.Equal(res.Seeds, []int32{orig.To}) {
		t.Fatalf("bypass edited %+v and seeded pins %v, want the sink wire %d and its sink %d", res.Edits, res.Seeds, cellArc+1, orig.To)
	}
	after := work.Arcs
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
	assertEnginesIdentical(t, "remove", eng, work, opt)

	// A bypassed buffer cannot be removed twice, and its stub stays addressable.
	if _, err := Edit(eng, []Op{RemoveBuffer(cellArc)}); err == nil {
		t.Fatal("removing a bypassed buffer again was accepted")
	}
	slacks := append([]float64(nil), eng.Slacks()...)
	applyTo(t, &eng, base, work, Annotate(cellArc, bufDelay(50, 5)), Annotate(target, bufDelay(50, 5)))
	if !slices.Equal(eng.Slacks(), slacks) {
		t.Fatal("annotating a bypassed buffer's stub moved an endpoint slack")
	}
	assertEnginesIdentical(t, "stub annotated", eng, work, opt)

	// Pin count never shrinks.
	if got := eng.NumPins(); got != tab.NumPins+2 {
		t.Fatalf("pin count %d, want %d", got, tab.NumPins+2)
	}
}

func TestAnnotateOnStructuralSessionDifferential(t *testing.T) {
	tab := buildTables(t, 33)
	opt := core.Options{TopK: 8, Hold: true, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	eng := base
	defer func() { closeWorking(eng, base) }()

	work := cloneTables(tab)
	applyTo(t, &eng, base, work, InsertBuffer(netArcs(tab)[0], 7, bufDelay(3, 0.2), 0))
	// Annotate a few arcs, including one appended by the insert.
	newArc := int32(len(work.Arcs) - 1)
	applyTo(t, &eng, base, work, Annotate(5, bufDelay(7, 0.4)), Annotate(newArc, bufDelay(1.5, 0.1)))
	assertEnginesIdentical(t, "annotate", eng, work, opt)
}

func TestMixedBatchWithAnnotateOps(t *testing.T) {
	tab := buildTables(t, 34)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	eng := base
	defer func() { closeWorking(eng, base) }()
	nets := netArcs(tab)
	work := cloneTables(tab)
	applyTo(t, &eng, base, work,
		InsertBuffer(nets[1], 7, bufDelay(2, 0.1), 0),
		Annotate(nets[3], bufDelay(6, 0.3)),
		Annotate(0, bufDelay(4, 0.2)),
	)
	assertEnginesIdentical(t, "mixed", eng, work, opt)
}

// TestBatchedEngineDifferential: a working engine edited off a scenario base
// stays, through insert / remove / annotate batches,
// bit-identical in every lane to a cold core.NewEngineScenarios over the
// edited netlist — and its unit lane (tt) to a cold single-lane engine, the figure a daemon
// serves as nominal.
func TestBatchedEngineDifferential(t *testing.T) {
	tab := buildTables(t, 35)
	scns := core.DefaultScenarios()
	for _, workers := range []int{1, 4} {
		opt := core.Options{TopK: 8, Hold: true, Workers: workers}
		base, err := core.NewEngineScenarios(tab, scns, opt)
		if err != nil {
			t.Fatal(err)
		}
		base.Run()
		base.RefreshHoldSlacks()
		eng := base
		work := cloneTables(tab)
		check := func(tag string) {
			t.Helper()
			// Per-scenario bit-identity against a cold batched engine over
			// the edited netlist.
			cold, err := core.NewEngineScenarios(work, scns, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			cold.Run()
			cold.RefreshHoldSlacks()
			got := eng
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
			nominal := mustEngine(t, work, opt)
			defer nominal.Close()
			tt := got.LaneSlacks(core.UnitLane(got.Scenarios()))
			for i, w := range nominal.Slacks() {
				if tt[i] != w {
					t.Fatalf("%s workers=%d ep %d: unit lane %v != cold single-lane %v", tag, workers, i, tt[i], w)
				}
			}
		}
		nets := netArcs(tab)
		applyTo(t, &eng, base, work,
			InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0),
			InsertBuffer(nets[4], 7, bufDelay(2, 0.1), 0.4),
		)
		if eng == base {
			t.Fatal("apply did not create a working engine")
		}
		check("insert")
		cellArc := int32(len(work.Arcs) - 2)
		if work.Arcs[cellArc].Kind != 0 {
			t.Fatalf("arc %d is not a cell arc", cellArc)
		}
		applyTo(t, &eng, base, work, RemoveBuffer(cellArc))
		check("remove")
		applyTo(t, &eng, base, work, Annotate(nets[2], bufDelay(5, 0.25)))
		check("annotate")
		closeWorking(eng, base)
		base.Close()
	}
}

// engineView is what a rejected batch must leave alone: the slacks, the pin
// and arc counts and the state's arc slabs.
type engineView struct {
	slacks         []float64
	pins, arcs     int
	mean, std      [2][]float64
	kind           []uint8
	cell, net      []int32
	arcFrom, arcTo []int32
}

func viewOf(e *core.Engine) engineView {
	st := e.ExportState()
	v := engineView{
		slacks: slices.Clone(e.Slacks()), pins: e.NumPins(), arcs: e.NumArcs(),
		kind: slices.Clone(st.ArcKind), cell: slices.Clone(st.ArcCell), net: slices.Clone(st.ArcNet),
		arcFrom: slices.Clone(st.ArcFrom), arcTo: slices.Clone(st.ArcTo),
	}
	for rf := range v.mean {
		v.mean[rf], v.std[rf] = slices.Clone(st.ArcMean[rf]), slices.Clone(st.ArcStd[rf])
	}
	return v
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func (v engineView) equal(w engineView) bool {
	return sameBits(v.slacks, w.slacks) && v.pins == w.pins && v.arcs == w.arcs &&
		sameBits(v.mean[0], w.mean[0]) && sameBits(v.mean[1], w.mean[1]) &&
		sameBits(v.std[0], w.std[0]) && sameBits(v.std[1], w.std[1]) &&
		slices.Equal(v.kind, w.kind) && slices.Equal(v.cell, w.cell) && slices.Equal(v.net, w.net) &&
		slices.Equal(v.arcFrom, w.arcFrom) && slices.Equal(v.arcTo, w.arcTo)
}

// TestApplyAtomicOnInvalidBatch: every rejected batch leaves the engine it
// was given as it was — a fresh fork of the base, and a working engine after
// one good edit, either of which an accepted batch would edit in place:
// slacks, pin and arc counts and the state's arc slabs, bit for bit.
func TestApplyAtomicOnInvalidBatch(t *testing.T) {
	tab := buildTables(t, 36)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	nets := netArcs(tab)
	fork, working := base.Fork(), base.Fork()
	defer fork.Close()
	defer working.Close()
	if _, err := Edit(working, []Op{InsertBuffer(nets[5], 7, bufDelay(3, 0.2), 0)}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		e    *core.Engine
	}{{"fresh fork", fork}, {"working engine", working}} {
		want := viewOf(c.e)
		for _, ops := range [][]Op{
			// Valid insert + claim conflict on the same arc.
			{InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0), Annotate(nets[0], bufDelay(1, 0.1))},
			// Bad arc id, bad fraction, wrong arc kind, cell arc removal shape.
			{InsertBuffer(int32(c.e.NumArcs()), 7, bufDelay(1, 0.1), 0)},
			{InsertBuffer(nets[0], 7, bufDelay(1, 0.1), 1.5)},
			{RemoveBuffer(nets[0])},
			{Annotate(-1, bufDelay(1, 0.1))},
			{},
		} {
			if res, err := Edit(c.e, ops); err == nil || res != nil {
				t.Fatalf("%s: invalid batch %+v accepted", c.name, ops)
			}
			if !viewOf(c.e).equal(want) {
				t.Fatalf("%s: rejected batch %+v changed the engine", c.name, ops)
			}
		}
	}
}

// TestEditLeavesBaseIntact: an edit of a fork of the shared base leaves the
// base bit-identical.
func TestEditLeavesBaseIntact(t *testing.T) {
	tab := buildTables(t, 37)
	opt := core.Options{TopK: 8, Workers: 2}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	want := viewOf(base)
	eng := base.Fork()
	defer eng.Close()
	if _, err := Edit(eng, []Op{InsertBuffer(netArcs(tab)[0], 7, bufDelay(30, 1), 0)}); err != nil {
		t.Fatal(err)
	}
	if sameBits(eng.Slacks(), want.slacks) {
		t.Fatal("the edit moved no slack — the check is vacuous")
	}
	if !viewOf(base).equal(want) {
		t.Fatal("an edit off the base changed the base")
	}
}

func TestRepeatedEditsStayIdentical(t *testing.T) {
	// A chain of structural batches — insert, annotate, insert, remove —
	// must stay bit-identical to the cold oracle at every step.
	tab := buildTables(t, 39)
	opt := core.Options{TopK: 8, Hold: true, Workers: 4}
	base := mustEngine(t, tab, opt)
	defer base.Close()
	eng := base
	defer func() { closeWorking(eng, base) }()

	nets := netArcs(tab)
	work := cloneTables(tab)
	applyTo(t, &eng, base, work, InsertBuffer(nets[0], 7, bufDelay(3, 0.2), 0))
	assertEnginesIdentical(t, "step1", eng, work, opt)

	applyTo(t, &eng, base, work, Annotate(nets[1], bufDelay(5, 0.25)))
	assertEnginesIdentical(t, "step2", eng, work, opt)

	applyTo(t, &eng, base, work, InsertBuffer(nets[2], 7, bufDelay(2, 0.1), 0.25))
	assertEnginesIdentical(t, "step3", eng, work, opt)

	cellArc := int32(len(work.Arcs) - 2)
	applyTo(t, &eng, base, work, RemoveBuffer(cellArc))
	assertEnginesIdentical(t, "step4", eng, work, opt)
}

// TestApplyBeatsColdRebuild holds the subsystem's reason to exist on a real
// block: a steady-state edit batch on a warmed working engine — two buffers spliced
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
	levels := base.ExportState().LvLevel
	deep := func(kind uint8, frac float64) int32 {
		want := int32(float64(base.NumLevels()) * frac)
		best, bestLv := int32(-1), int32(-1)
		for i := range tab.Arcs {
			if lv := levels[tab.Arcs[i].To]; tab.Arcs[i].Kind == kind && lv <= want && lv > bestLv {
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
	// Insert-only, so arc ids stay valid and every Edit splices fresh buffers:
	// the working engine keeps growing as an optimizer's would.
	ops := []Op{
		InsertBuffer(netA, -1, bufDelay(5, 0.5), 0.5),
		InsertBuffer(netB, -1, bufDelay(5, 0.5), 0.4),
		Annotate(cellArc, ann),
	}
	eng := base
	defer func() { closeWorking(eng, base) }()
	work := cloneTables(tab)
	applyTo(t, &eng, base, work, ops...) // the first Edit allocates the working engine

	// Interleaved best-of-7: both sides see the same background load.
	timed := func(fn func()) time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	inc, cold := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var res *Result
	for i := 0; i < 7; i++ {
		inc = min(inc, timed(func() { res = applyTo(t, &eng, base, work, ops...) }))
		cold = min(cold, timed(func() { mustEngine(t, work, opt).Close() }))
	}
	t.Logf("block-1: Edit %v vs cold rebuild %v — %.1fx (relevel %+v)",
		inc, cold, float64(cold)/float64(inc), res.Relevel)
	if cold < 10*inc {
		t.Errorf("steady-state Edit %v is only %.1fx faster than a cold rebuild %v, want >= 10x",
			inc, float64(cold)/float64(inc), cold)
	}
}
