// Incremental machinery over a composed (stitched) base: topo edits on the
// flattened chip must recompile through the patched path and the incremental
// levelizer bit-identically to a cold rebuild — stitching introduces pin
// offsets, re-parented clock trees, and cross-block wire arcs that the
// per-block tests never exercise.
package hier

import (
	"reflect"
	"slices"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/levelize"
	"insta/internal/num"
	"insta/internal/topo"
)

// advanced returns a copy of tab with an applied batch written in: its edited
// rows by id (appended ids grow the arc table) and its appended pins. It is
// the cold-compile oracle's netlist; the patched state is never read back for
// it.
func advanced(tab *circuitops.Tables, res *topo.Result) *circuitops.Tables {
	out := *tab
	out.Arcs = slices.Clone(tab.Arcs)
	out.NumPins += res.NewPins
	for _, ed := range res.Edits {
		if n := int(ed.ID) + 1; n > len(out.Arcs) {
			out.Arcs = append(out.Arcs, make([]circuitops.ArcRow, n-len(out.Arcs))...)
		}
		out.Arcs[ed.ID] = ed.Row
	}
	return &out
}

// composedEdit builds the flattened chip-2x, an edit batch targeting its
// top-level wires (one buffer insertion, one annotation), the applied result,
// and the edited netlist.
func composedEdit(t *testing.T) (prev *core.State, ops []topo.Op, res *topo.Result, edited *circuitops.Tables) {
	t.Helper()
	run := mustChipRun(t, "chip-2x", nil, core.Options{TopK: 8, Workers: 2}, nil)
	flatTab, _, err := ComposeFlat(run.Spec.Name, run.States, run.Spec.Wires)
	if err != nil {
		t.Fatal(err)
	}
	prev, err = core.Compile(flatTab)
	if err != nil {
		t.Fatal(err)
	}
	// The top-level wires are the last arcs ComposeFlat appends; editing them
	// exercises the cross-block seams specifically.
	nw := len(run.Spec.Wires)
	if nw < 2 {
		t.Fatalf("chip-2x has %d wires", nw)
	}
	wireA := int32(len(flatTab.Arcs) - nw)
	wireB := int32(len(flatTab.Arcs) - 1)
	bufD := [2]num.Dist{{Mean: 5, Std: 0.5}, {Mean: 5.25, Std: 0.5}}
	annD := [2]num.Dist{{Mean: 40, Std: 2}, {Mean: 41, Std: 2}}
	ops = []topo.Op{
		topo.InsertBuffer(wireA, -1, bufD, 0.5),
		topo.Annotate(wireB, annD),
	}
	res, err = topo.Apply(prev, ops)
	if err != nil {
		t.Fatal(err)
	}
	return prev, ops, res, advanced(flatTab, res)
}

// TestComposedIncrementalPatch patches two batches into a working engine —
// the composed edit, then an unbuffer of the buffer it spliced in, riding
// with an annotation — and holds each patched state to a cold Compile of the
// same tables, slab for slab: the bypass re-points the sink wire from the
// buffer's output to its driver, which changes both pins' fan-out counts and
// so takes the fan-out CSR rebuild.
func TestComposedIncrementalPatch(t *testing.T) {
	prev, ops, res, edited := composedEdit(t)
	base, err := core.NewEngineFromState(prev, core.Options{TopK: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	base.Run()
	work := base.Fork()
	defer work.Close()
	patchMatchesCold(t, "insert", work, res, edited)

	cellArc := int32(len(edited.Arcs) - 2)
	res2, err := topo.Apply(work.ExportState(), []topo.Op{
		topo.RemoveBuffer(cellArc),
		topo.Annotate(ops[1].Arc, [2]num.Dist{{Mean: 30, Std: 1.5}, {Mean: 31, Std: 1.5}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Removed != 1 || res2.Annotated != 1 {
		t.Fatalf("unbuffer batch footprint: %+v", res2)
	}
	patchMatchesCold(t, "unbuffer", work, res2, advanced(edited, res2))
}

// patchMatchesCold patches working engine e with res's batch and checks its
// state against core.Compile of the edited netlist field by field, then the
// slacks e reads against those of an engine over the cold state.
func patchMatchesCold(t *testing.T, tag string, e *core.Engine, res *topo.Result, edited *circuitops.Tables) {
	t.Helper()
	coldSt, err := core.Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	is, err := e.Patch(res.Edits, res.NewPins, res.Seeds)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	t.Logf("%s relevel: %+v", tag, is)
	got, want := reflect.ValueOf(*e.ExportState()), reflect.ValueOf(*coldSt)
	for i := 0; i < got.NumField(); i++ {
		if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			t.Fatalf("%s: patched %s differs from cold compile", tag, got.Type().Field(i).Name)
		}
	}
	ce, err := core.NewEngineFromState(coldSt, core.Options{TopK: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	if !reflect.DeepEqual(e.Slacks(), ce.Run()) {
		t.Fatalf("%s: patched-engine slacks differ from cold compile", tag)
	}
}

func TestComposedIncrementalCSRDirect(t *testing.T) {
	prev, _, res, edited := composedEdit(t)
	coldSt, err := core.Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	prevRes := &levelize.Result{
		Level:      prev.LvLevel,
		NumLevels:  prev.NumLevels,
		Order:      prev.LvOrder,
		LevelStart: prev.LvLevelStart,
	}
	inc, stats, err := levelize.Incremental(coldSt.NumPins,
		coldSt.FoStart, coldSt.FoAdj, coldSt.FaninStart, coldSt.FaninFrom,
		prevRes, res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("incremental CSR: %+v", stats)
	if inc.NumLevels != coldSt.NumLevels {
		t.Fatalf("incremental %d levels, cold %d", inc.NumLevels, coldSt.NumLevels)
	}
	if !reflect.DeepEqual(inc.Level, coldSt.LvLevel) {
		t.Fatal("incremental levels differ from full levelization")
	}
	if !reflect.DeepEqual(inc.Order, coldSt.LvOrder) ||
		!reflect.DeepEqual(inc.LevelStart, coldSt.LvLevelStart) {
		t.Fatal("incremental schedule differs from full levelization")
	}
	if stats.Region <= 0 || stats.Region >= coldSt.NumPins {
		t.Fatalf("relevel region %d of %d pins is not localized", stats.Region, coldSt.NumPins)
	}
}

func TestComposedTopoSession(t *testing.T) {
	prev, ops, _, edited := composedEdit(t)
	opt := core.Options{TopK: 8, Workers: 2}
	e, err := core.NewEngineFromState(prev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	// Same edit batch, through topo.Edit this time.
	work := e.Fork()
	defer work.Close()
	if _, err := topo.Edit(work, ops); err != nil {
		t.Fatal(err)
	}
	coldSt, err := core.Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := core.NewEngineFromState(coldSt, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	ce.Run()
	if !reflect.DeepEqual(work.EvalSlacks(), ce.EvalSlacks()) {
		t.Fatal("edited slacks differ from cold rebuild of the composed edit")
	}
	if work.WNS() != ce.WNS() || work.TNS() != ce.TNS() {
		t.Fatalf("edited WNS/TNS %v/%v != cold %v/%v",
			work.WNS(), work.TNS(), ce.WNS(), ce.TNS())
	}
}
