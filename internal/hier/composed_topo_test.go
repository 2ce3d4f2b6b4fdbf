// Incremental machinery over a composed (stitched) base: topo edits on the
// flattened chip must recompile through the patched path and the incremental
// levelizer bit-identically to a cold rebuild — stitching introduces pin
// offsets, re-parented clock trees, and cross-block wire arcs that the
// per-block tests never exercise.
package hier

import (
	"reflect"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/levelize"
	"insta/internal/num"
	"insta/internal/topo"
)

// composedEdit builds the flattened chip-2x, an edit batch targeting its
// top-level wires (one buffer insertion, one annotation), and the applied
// result.
func composedEdit(t *testing.T) (flatTab *circuitops.Tables, prev *core.State, ops []topo.Op, res *topo.Result) {
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
	res, err = topo.Apply(flatTab, ops)
	if err != nil {
		t.Fatal(err)
	}
	return flatTab, prev, ops, res
}

func TestComposedIncrementalPatch(t *testing.T) {
	_, prev, _, res := composedEdit(t)
	coldSt, err := core.Compile(res.Tables)
	if err != nil {
		t.Fatal(err)
	}
	patched, is, err := core.CompileIncrementalPatched(res.Tables, prev, res.Seeds, res.Changed, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("relevel: %+v", is)
	if patched.NumLevels != coldSt.NumLevels {
		t.Fatalf("patched %d levels, cold %d", patched.NumLevels, coldSt.NumLevels)
	}
	if !reflect.DeepEqual(patched.LvLevel, coldSt.LvLevel) {
		t.Fatal("patched levelization differs from cold compile")
	}
	opt := core.Options{TopK: 8, Workers: 2}
	slacks := func(st *core.State) []float64 {
		e, err := core.NewEngineFromState(st, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run()
		return e.EvalSlacks()
	}
	if !reflect.DeepEqual(slacks(patched), slacks(coldSt)) {
		t.Fatal("patched-state slacks differ from cold compile")
	}
}

func TestComposedIncrementalCSRDirect(t *testing.T) {
	_, prev, _, res := composedEdit(t)
	coldSt, err := core.Compile(res.Tables)
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
	_, prev, ops, res := composedEdit(t)
	opt := core.Options{TopK: 8, Workers: 2}
	e, err := core.NewEngineFromState(prev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	sess, err := topo.NewSession(e)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Same edit batch, through the session's in-place path this time.
	if _, err := sess.Apply(ops); err != nil {
		t.Fatal(err)
	}
	coldSt, err := core.Compile(res.Tables)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := core.NewEngineFromState(coldSt, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	ce.Run()
	if !reflect.DeepEqual(sess.Engine().EvalSlacks(), ce.EvalSlacks()) {
		t.Fatal("session slacks differ from cold rebuild of the composed edit")
	}
	if sess.Engine().WNS() != ce.WNS() || sess.Engine().TNS() != ce.TNS() {
		t.Fatalf("session WNS/TNS %v/%v != cold %v/%v",
			sess.Engine().WNS(), sess.Engine().TNS(), ce.WNS(), ce.TNS())
	}
}
