package core

// Row capacities (rowCap): a pin's row holds min(K, Σ cap(parent)) slots per
// lane, the exactness lemma behind it is fuzzed in FuzzMergeTopK, and the
// golden digests hold the results to the dense layout's. This file holds the
// layout's own invariants on the block presets, cold and across the two
// structural edits the serving layer makes.

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/liberty"
)

// assertCapacities checks e's rows against the capacity rule: every capacity
// in [1, K], never below a parent's along an arc into a non-startpoint pin,
// every late and early queue packed within it in every lane, and the tensors
// exactly 20 B per slot over S slots per unit of every stored row and
// headroom units, both transitions, late and early: a derived or dead pin
// takes none.
func assertCapacities(t *testing.T, what string, e *Engine, headroom int) {
	t.Helper()
	sum := 0
	for p := int32(0); p < int32(e.st.NumPins); p++ {
		k := e.rows[p].k
		if k < 1 || int(k) > e.opt.TopK {
			t.Fatalf("%s: pin %d has capacity %d, K = %d", what, p, k, e.opt.TopK)
		}
		if e.rows[p].stored() {
			sum += int(k)
		}
		if e.st.SpOfPin[p] >= 0 {
			continue
		}
		for _, from := range e.st.FaninFrom[e.st.FaninStart[p]:e.st.FaninStart[p+1]] {
			if pk := e.rows[from].k; k < pk {
				t.Fatalf("%s: pin %d has capacity %d below its parent %d's %d", what, p, k, from, pk)
			}
		}
	}
	assertEnginePacked(t, what, e)
	if want := int64(2*20*len(e.scns)*(sum+headroom)) * 2; e.tensorBytes() != want {
		t.Fatalf("%s: tensors take %d B, 2 x 20 B x S x (Σcap %d + headroom %d) x 2 is %d", what, e.tensorBytes(), sum, headroom, want)
	}
}

// assertNothingMoved holds the pins a reseed found to the spans they had: an
// op that preserves every capacity relocates no queue but a pin's that
// started to store one, which had no row.
func assertNothingMoved(t *testing.T, what string, ne *Engine, oldRows []rowSpan) {
	t.Helper()
	for p, r := range oldRows {
		now := ne.rows[p]
		if now.k != r.k || now.off != r.off && !(!r.stored() && now.stored()) {
			t.Fatalf("%s: pin %d moved from %+v to %+v", what, p, r, now)
		}
	}
}

// bufferEdits splits net arc a into u→x→y→v with a fresh buffer (x, y), as
// topo's insert op does: the arc edits, the pins appended and the seeds.
func bufferEdits(st *State, a int32) ([]ArcEdit, int, []int32) {
	orig := st.Arc(a)
	x, y, n := int32(st.NumPins), int32(st.NumPins+1), int32(len(st.ArcFrom))
	in, out := orig, orig
	in.To, out.From = x, y
	in.MeanRise, in.MeanFall, out.MeanRise, out.MeanFall = orig.MeanRise/2, orig.MeanFall/2, orig.MeanRise/2, orig.MeanFall/2
	cell := circuitops.ArcRow{
		From: x, To: y, Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
		MeanRise: 14, StdRise: 1.5, MeanFall: 16, StdFall: 1.7,
	}
	return []ArcEdit{{a, in}, {n, cell}, {n + 1, out}}, 2, []int32{x, y, orig.To}
}

// bypassEdits bypasses the buffer with input wire in, gate arc cell and
// output wire out, as topo's remove op does: out is re-pointed at in's
// driver, carrying the three stages' composed delay, and the buffer stays as
// a dead end. The seed is the sink; the buffer's output, which out no longer
// leaves, is Patch's to find.
func bypassEdits(st *State, in, cell, out int32) ([]ArcEdit, []int32) {
	ia, ca, oa := st.Arc(in), st.Arc(cell), st.Arc(out)
	oa.From, oa.Net = ia.From, ia.Net
	oa.MeanRise = ia.MeanRise + ca.MeanRise + oa.MeanRise
	oa.MeanFall = ia.MeanFall + ca.MeanFall + oa.MeanFall
	oa.StdRise = math.Sqrt(ia.StdRise*ia.StdRise + ca.StdRise*ca.StdRise + oa.StdRise*oa.StdRise)
	oa.StdFall = math.Sqrt(ia.StdFall*ia.StdFall + ca.StdFall*ca.StdFall + oa.StdFall*oa.StdFall)
	return []ArcEdit{{out, oa}}, []int32{oa.To}
}

// patched returns st patched by one batch into a state of its own, st left
// as it was: the state a cold oracle engine is built over.
func patched(t *testing.T, st *State, edits []ArcEdit, newPins int, seeds []int32) *State {
	t.Helper()
	next, _, err := compileIncrementalPatched(st.fork(), edits, newPins, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// mustPatch patches e in place by one batch, which must be accepted.
func mustPatch(t *testing.T, e *Engine, edits []ArcEdit, newPins int, seeds []int32) {
	t.Helper()
	if _, err := e.Patch(edits, newPins, seeds); err != nil {
		t.Fatal(err)
	}
}

// grownUnits counts the units of the rows e stores that it did not store
// over rows: the appended pins' and the pins that started to store, each a
// fresh row of its capacity taken from the headroom.
func grownUnits(e *Engine, rows []rowSpan) int {
	grew := 0
	for p, now := range e.rows {
		if now.stored() && (p >= len(rows) || !rows[p].stored()) {
			grew += int(now.k)
		}
	}
	return grew
}

// TestRowCapacity runs every block preset at K = 1, 8 and 32 with hold on over
// {ss,tt,ff}: the capacity invariants on the cold engine, then after a buffer
// is inserted on a net arc (patching a fork of it) and bypassed again
// (patching that fork again). Both ops keep every existing pin's capacity, so
// both patches must move no row.
func TestRowCapacity(t *testing.T) {
	// On block-1 at K = 32 a fork holds a second {ss,tt,ff} engine with hold
	// until the first is closed, 1.3 GB between them: collect early rather
	// than let the heap double past that.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	presets := bench.BlockNames()
	if testing.Short() {
		presets = []string{"block-5"}
	}
	for _, name := range presets {
		spec, err := bench.BlockSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Compile(buildHarness(t, spec).tab)
		if err != nil {
			t.Fatal(err)
		}
		// The middle positive-unate net arc.
		var nets []int32
		for a := range st.ArcFrom {
			if st.ArcKind[a] == 1 && liberty.Unate(st.FaninSense[faninPos(st, int32(a))]) == liberty.PositiveUnate {
				nets = append(nets, int32(a))
			}
		}
		arc := nets[len(nets)/2]
		for _, k := range []int{1, 8, 32} {
			t.Run(fmt.Sprintf("%s/K%d", name, k), func(t *testing.T) {
				e, err := NewEngineLanes(st, DefaultScenarios(), Options{TopK: k, Hold: true, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				e.Run()
				e.RefreshHoldSlacks()
				assertCapacities(t, "cold", e, 0)
				if k > 1 && !slices.ContainsFunc(e.rows, func(r rowSpan) bool { return int(r.k) < k }) {
					t.Fatal("no pin has a capacity below K — the layout check is vacuous")
				}

				edits, newPins, seeds := bufferEdits(st, arc)
				oldRows, oldUnits := slices.Clone(e.rows), e.rowUnits
				ne := e.Fork()
				e.Close()
				defer ne.Close()
				mustPatch(t, ne, edits, newPins, seeds)
				what := "buffer inserted (fork)"
				assertRowsKept(t, what, ne, oldRows, oldUnits)
				assertNothingMoved(t, what, ne, oldRows)
				// A pin that started to store its queues took a fresh row of k
				// units from the headroom.
				grew := grownUnits(ne, oldRows)
				assertCapacities(t, what, ne, seedHeadroom*k-grew)

				n := int32(len(st.ArcFrom))
				edits, seeds = bypassEdits(ne.st, arc, n, n+1)
				oldRows = slices.Clone(ne.rows)
				mustPatch(t, ne, edits, 0, seeds)
				what = "buffer bypassed (in place)"
				if ne.st.ArcFrom[n+1] != st.ArcFrom[arc] {
					t.Fatalf("%s: the output wire starts at pin %d, not the driver %d", what, ne.st.ArcFrom[n+1], st.ArcFrom[arc])
				}
				assertNothingMoved(t, what, ne, oldRows)
				grew += grownUnits(ne, oldRows)
				assertCapacities(t, what, ne, seedHeadroom*k-grew)
			})
		}
	}
}

// TestReseedShrunkRowSeedsFanout: startpoints A, B and C; B reaches p through
// u, A directly, and p's child c also hears from C. At K = 2, p and c both
// have capacity 2 and c keeps A and B, which beat C. Cutting u→p shrinks p to
// capacity 1: its row keeps A — exactly what the rebuild computes, so the
// wave's compare finds p unchanged — and c, whose capacity is still 2, would
// go on holding B where a cold engine holds C. A row that loses a live entry
// to its new capacity must therefore seed its fan-out. (With hold on, p's
// early queue, which keeps B first, does change and carries the wave on; the
// late view alone is the case that needs the seeds.) The cut leaves u, and so
// B, with no way to an endpoint; u is listed as the pin the cut arc no longer
// leaves from, as reseed asks, so that both die as they do in a cold engine.
func TestReseedShrunkRowSeedsFanout(t *testing.T) {
	const a, b, c, u, p, ch = 0, 1, 2, 3, 4, 5
	inf := math.Inf(1)
	arc := func(from, to int32, mean float64) circuitops.ArcRow {
		return circuitops.ArcRow{From: from, To: to, Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
			MeanRise: mean, StdRise: 0.1, MeanFall: mean, StdFall: 0.1}
	}
	tab := &circuitops.Tables{
		Design: "shrink", NumPins: 6, Period: 200, NSigma: 3,
		ClockNodes: []circuitops.ClockNodeRow{{Parent: -1}},
		SPs: []circuitops.SPRow{
			{Pin: a, Mean: 100, Std: 1}, {Pin: b, Mean: 80, Std: 1}, {Pin: c, Mean: 50, Std: 1},
		},
		EPs:  []circuitops.EPRow{{Pin: ch, BaseReqRise: 300, BaseReqFall: 300, HoldReqRise: inf, HoldReqFall: inf}},
		Arcs: []circuitops.ArcRow{arc(b, u, 1), arc(a, p, 1), arc(u, p, 1), arc(p, ch, 1), arc(c, ch, 1)},
	}
	cut := *tab
	cut.Arcs = slices.Delete(slices.Clone(tab.Arcs), 2, 3)
	st, err := Compile(&cut)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct{ hold, fork bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		opt := Options{TopK: 2, Hold: mode.hold, Workers: 1}
		cold, err := NewEngineFromState(st, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		cold.Run()
		e, err := NewEngine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run()
		if _, _, sps := e.TopEntries(0, ch); !slices.Equal(sps, []int32{a, b}) {
			t.Fatalf("before the cut c holds startpoints %v, want A and B", sps)
		}
		ne := reseedOnto(e, st, []int32{p, u}, mode.fork)
		defer ne.Close()
		if ne.rows[p].k != 1 || ne.rows[ch].k != 2 {
			t.Fatalf("capacities after the cut: p %d, c %d; want 1 and 2", ne.rows[p].k, ne.rows[ch].k)
		}
		for q := int32(0); q < int32(ne.st.NumPins); q++ {
			if !sameShown(&ne.top, &cold.top, 1, q) || mode.hold && !sameShown(&ne.hold.view, &cold.hold.view, -1, q) {
				t.Fatalf("%+v: pin %d: reseeded queues differ from a cold engine's", mode, q)
			}
		}
	}
}

// TestCheckRowUnitsEdge pins the one bound a patch checks on growth, at its
// edge: numPins fresh rows of K units each on top of the units e has handed
// out fit a row offset up to math.MaxInt32 units, and one pin more does not.
// No test reaches it through topo.Edit — that takes some 2^31/K pins, and a
// reseed's scratch regions are S·K slots wide per pin — so the function Patch
// checks is tested here; Patch refuses the same count with the same error,
// before its first write.
func TestCheckRowUnitsEdge(t *testing.T) {
	h := buildHarness(t, testSpec(83))
	for _, k := range []int{1, 6, 32} {
		e := newLaneEngine(t, h.tab, unitLane, Options{TopK: k, Workers: 1})
		n := (math.MaxInt32 - e.rowUnits) / k
		if err := e.checkRowUnits(n); err != nil {
			t.Fatalf("K=%d: %d pins on %d units fit exactly, refused: %v", k, n, e.rowUnits, err)
		}
		err := e.checkRowUnits(n + 1)
		if err == nil {
			t.Fatalf("K=%d: %d pins on %d units pass math.MaxInt32 units, accepted", k, n+1, e.rowUnits)
		}
		if _, perr := e.Patch(nil, n+1-e.st.NumPins, nil); perr == nil || perr.Error() != err.Error() {
			t.Fatalf("K=%d: Patch to %d pins answered %v, the bound %v", k, n+1, perr, err)
		}
		e.Close()
	}
}

// TestPatchRefusesBadSeeds: a seed outside the edited pin range, or an
// appended pin that is not a seed, is refused before the first write — the
// engine's state slabs, row spans, tensors and slacks stay bit-identical —
// and the same batch with its seeds right is then accepted.
func TestPatchRefusesBadSeeds(t *testing.T) {
	h := buildHarness(t, testSpec(83))
	base := newLaneEngine(t, h.tab, laneCases[1].lanes, Options{TopK: 6, Workers: 1})
	base.Run()
	e := base.Fork()
	defer e.Close()
	edits, newPins, seeds := bufferEdits(e.st, positiveNetArc(t, e.st))
	n := int32(e.st.NumPins)
	st, stp, rows := e.st.fork(), e.st, slices.Clone(e.rows)
	q := *e.top.q
	mean, std, sps := slices.Clone(q.mean), slices.Clone(q.std), slices.Clone(q.sp)
	slacks := engineSlacks(e)
	for _, bad := range []struct {
		what  string
		seeds []int32
	}{
		{"a negative seed", append(slices.Clone(seeds), -1)},
		{"a seed past the appended pins", append(slices.Clone(seeds), n+int32(newPins))},
		{"an appended pin left out", slices.DeleteFunc(slices.Clone(seeds), func(p int32) bool { return p == n+1 })},
	} {
		if _, err := e.Patch(edits, newPins, bad.seeds); err == nil {
			t.Fatalf("%s: Patch accepted seeds %v", bad.what, bad.seeds)
		}
		if e.st != stp || !reflect.DeepEqual(*e.st, *st) || !slices.Equal(e.rows, rows) {
			t.Fatalf("%s: a refused patch changed the engine's state", bad.what)
		}
		if !slices.Equal(e.top.q.mean, mean) || !slices.Equal(e.top.q.std, std) || !slices.Equal(e.top.q.sp, sps) {
			t.Fatalf("%s: a refused patch changed the engine's queues", bad.what)
		}
		sameSlacks(t, bad.what, engineSlacks(e), slacks)
	}
	mustPatch(t, e, edits, newPins, seeds)
}

// positiveNetArc returns st's first positive-unate net arc, where a buffer
// can go.
func positiveNetArc(t *testing.T, st *State) int32 {
	t.Helper()
	for a := range st.ArcFrom {
		if st.ArcKind[a] == 1 && liberty.Unate(st.FaninSense[faninPos(st, int32(a))]) == liberty.PositiveUnate {
			return int32(a)
		}
	}
	t.Fatal("test design has no positive-unate net arc")
	return -1
}
