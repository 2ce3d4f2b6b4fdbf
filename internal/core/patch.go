package core

// Patched recompilation: the append-only fast path under structural ECO
// sessions. CompileIncremental is already localized in its levelize phase,
// but it still rebuilds every O(arcs) slab of the State from the edited
// tables — fan-in CSR, annotation planes, fan-out CSR — which dominates the
// cost of a small edit on a large design. For the batches the optimizer loop
// actually produces (buffer insertions and re-annotations: arcs appended or
// rewritten in place, never removed) the previous compiled state differs
// from the next one only in the rows the batch touched, so this file patches
// those rows instead: per-arc slabs are extended and overwritten at the
// changed ids, and the two CSRs are repaired segment by segment for just the
// pins whose adjacency changed. The repaired segments are re-sorted by arc
// id, which is exactly the order the full compile's ascending arc scan
// produces — so the patched State is bit-identical, slab for slab, to
// Compile of the same edited tables (the topo differential suite pins this
// against the cold oracle).

import (
	"fmt"
	"slices"

	"insta/internal/circuitops"
	"insta/internal/levelize"
	"insta/internal/liberty"
)

// errPatchShape is returned — before anything is mutated — when the edit is
// outside the append-only shape this path handles (e.g. an existing pin's
// arc count changed, as a buffer bypass moving a wire between existing pins
// does). Callers fall back to CompileIncremental.
var errPatchShape = fmt.Errorf("core: edit shape not patchable; use CompileIncremental")

// CompileIncrementalPatched recompiles the edited tables t against prev by
// patching prev's slabs rather than rebuilding them, for batches that only
// appended arcs and pins or rewrote arc rows in place. changed lists every
// arc id whose row differs from the row prev was compiled with, including all
// appended ids; seeds is the usual re-levelization seed set (pins whose
// fan-in changed).
//
// owned declares that prev is private to the caller (the typical case: the
// previous patched state of the same session) and may be cannibalized — its
// slabs are extended and rewritten in place, so prev must not be used again.
// With owned=false the touched slabs are copied first and prev stays intact
// (the session's first edit patches the shared base state this way).
//
// All shape violations are detected before the first write; the only
// post-mutation failure is a levelize cycle, which an append/rewrite batch
// cannot introduce (no edge is ever added between two pre-existing pins
// except via a fresh intermediate pin).
func CompileIncrementalPatched(t *circuitops.Tables, prev *State, seeds, changed []int32, owned bool) (*State, levelize.IncStats, error) {
	var is levelize.IncStats
	if prev == nil {
		return nil, is, fmt.Errorf("core: CompileIncrementalPatched requires a previous state")
	}
	nArcs := len(t.Arcs)
	prevArcs := len(prev.ArcFrom)
	if nArcs < prevArcs || t.NumPins < prev.NumPins {
		return nil, is, errPatchShape
	}
	newPins := t.NumPins - prev.NumPins

	chg := append(make([]int32, 0, len(changed)), changed...)
	slices.Sort(chg)
	inChanged := make(map[int32]bool, len(chg))
	for _, c := range chg {
		if c < 0 || int(c) >= nArcs || inChanged[c] {
			return nil, is, errPatchShape
		}
		inChanged[c] = true
	}
	for i := prevArcs; i < nArcs; i++ {
		if !inChanged[int32(i)] {
			return nil, is, errPatchShape
		}
	}

	// Per-pin adjacency deltas. Existing pins must come out net-zero on both
	// sides (append/rewrite batches preserve arc counts everywhere except on
	// appended pins); the appended pins' counts extend the CSRs.
	inDelta := make(map[int32]int32)
	outDelta := make(map[int32]int32)
	newInCount := make([]int32, newPins)
	newOutCount := make([]int32, newPins)
	addIn := make(map[int32][]int32)  // changed arcs by new To, ascending (chg is sorted)
	addOut := make(map[int32][]int32) // changed arcs by new From, ascending
	for _, c := range chg {
		row := &t.Arcs[c]
		if row.From < 0 || int(row.From) >= t.NumPins || row.To < 0 || int(row.To) >= t.NumPins {
			return nil, is, errPatchShape
		}
		addIn[row.To] = append(addIn[row.To], c)
		addOut[row.From] = append(addOut[row.From], c)
		if int(row.To) >= prev.NumPins {
			newInCount[int(row.To)-prev.NumPins]++
		} else {
			inDelta[row.To]++
		}
		if int(row.From) >= prev.NumPins {
			newOutCount[int(row.From)-prev.NumPins]++
		} else {
			outDelta[row.From]++
		}
		if int(c) < prevArcs {
			// The pre-edit endpoints necessarily address pre-existing pins.
			inDelta[prev.ArcTo[c]]--
			outDelta[prev.ArcFrom[c]]--
		}
	}
	for _, d := range inDelta {
		if d != 0 {
			return nil, is, errPatchShape
		}
	}
	for _, d := range outDelta {
		if d != 0 {
			return nil, is, errPatchShape
		}
	}
	sumIn, sumOut := 0, 0
	for _, c := range newInCount {
		sumIn += int(c)
	}
	for _, c := range newOutCount {
		sumOut += int(c)
	}
	if prevArcs+sumIn != nArcs || prevArcs+sumOut != nArcs {
		return nil, is, errPatchShape
	}

	// Capture the pre-edit segments of every affected existing pin before any
	// in-place rewrite (with owned=true the source slabs are about to change
	// under us). A pin is affected when a changed arc attaches to or detaches
	// from it — or keeps it but changes content (rewritten in place).
	type inSlot struct {
		arc, from int32
		sense     uint8
	}
	oldIn := make(map[int32][]inSlot, len(inDelta))
	for p := range inDelta {
		seg := make([]inSlot, 0, prev.FaninStart[p+1]-prev.FaninStart[p])
		for pos := prev.FaninStart[p]; pos < prev.FaninStart[p+1]; pos++ {
			seg = append(seg, inSlot{prev.FaninArc[pos], prev.FaninFrom[pos], prev.FaninSense[pos]})
		}
		oldIn[p] = seg
	}
	type outSlot struct {
		adj, arc int32
	}
	oldOut := make(map[int32][]outSlot, len(outDelta))
	for p := range outDelta {
		seg := make([]outSlot, 0, prev.FoStart[p+1]-prev.FoStart[p])
		for pos := prev.FoStart[p]; pos < prev.FoStart[p+1]; pos++ {
			seg = append(seg, outSlot{prev.FoAdj[pos], prev.FoArc[pos]})
		}
		oldOut[p] = seg
	}

	// From here on the state is mutated (or copied, owned=false); no error
	// can be reported short of the unreachable levelize cycle.
	st := new(State)
	*st = *prev
	st.Design, st.NumPins, st.Period, st.NSigma = t.Design, t.NumPins, t.Period, t.NSigma

	for rf := 0; rf < 2; rf++ {
		st.ArcMean[rf] = extendSlab(prev.ArcMean[rf], nArcs, owned)
		st.ArcStd[rf] = extendSlab(prev.ArcStd[rf], nArcs, owned)
	}
	st.ArcKind = extendSlab(prev.ArcKind, nArcs, owned)
	st.ArcCell = extendSlab(prev.ArcCell, nArcs, owned)
	st.ArcNet = extendSlab(prev.ArcNet, nArcs, owned)
	st.ArcFrom = extendSlab(prev.ArcFrom, nArcs, owned)
	st.ArcTo = extendSlab(prev.ArcTo, nArcs, owned)
	for _, c := range chg {
		a := &t.Arcs[c]
		st.ArcMean[liberty.Rise][c], st.ArcStd[liberty.Rise][c] = a.MeanRise, a.StdRise
		st.ArcMean[liberty.Fall][c], st.ArcStd[liberty.Fall][c] = a.MeanFall, a.StdFall
		st.ArcKind[c], st.ArcCell[c], st.ArcNet[c] = a.Kind, a.Cell, a.Net
		st.ArcFrom[c], st.ArcTo[c] = a.From, a.To
	}

	// Per-pin tables: appended pins are neither startpoints nor endpoints.
	st.SpOfPin = extendSlab(prev.SpOfPin, t.NumPins, owned)
	st.EpOfPin = extendSlab(prev.EpOfPin, t.NumPins, owned)
	for p := prev.NumPins; p < t.NumPins; p++ {
		st.SpOfPin[p], st.EpOfPin[p] = -1, -1
	}

	// Fan-in CSR: existing pins keep their slot ranges (net-zero deltas), so
	// the start array only gains the appended pins' prefix sums; affected
	// segments are rebuilt sorted by arc id — the order the full compile's
	// ascending arc scan yields.
	st.FaninStart = extendSlab(prev.FaninStart, t.NumPins+1, owned)
	for p := prev.NumPins; p < t.NumPins; p++ {
		st.FaninStart[p+1] = st.FaninStart[p] + newInCount[p-prev.NumPins]
	}
	st.FaninArc = extendSlab(prev.FaninArc, nArcs, owned)
	st.FaninFrom = extendSlab(prev.FaninFrom, nArcs, owned)
	st.FaninSense = extendSlab(prev.FaninSense, nArcs, owned)
	inScratch := make([]inSlot, 0, 16)
	writeIn := func(p int32, kept []inSlot) {
		merged := inScratch[:0]
		for _, s := range kept {
			if !inChanged[s.arc] {
				merged = append(merged, s)
			}
		}
		for _, c := range addIn[p] {
			merged = append(merged, inSlot{c, t.Arcs[c].From, t.Arcs[c].Sense})
		}
		slices.SortFunc(merged, func(a, b inSlot) int { return int(a.arc - b.arc) })
		pos := st.FaninStart[p]
		for _, s := range merged {
			st.FaninArc[pos], st.FaninFrom[pos], st.FaninSense[pos] = s.arc, s.from, s.sense
			pos++
		}
		inScratch = merged[:0]
	}
	for p := range inDelta {
		writeIn(p, oldIn[p])
	}
	for p := prev.NumPins; p < t.NumPins; p++ {
		writeIn(int32(p), nil)
	}

	// Fan-out CSR, symmetric (slot content is the arc's head pin + arc id).
	st.FoStart = extendSlab(prev.FoStart, t.NumPins+1, owned)
	for p := prev.NumPins; p < t.NumPins; p++ {
		st.FoStart[p+1] = st.FoStart[p] + newOutCount[p-prev.NumPins]
	}
	st.FoAdj = extendSlab(prev.FoAdj, nArcs, owned)
	st.FoArc = extendSlab(prev.FoArc, nArcs, owned)
	outScratch := make([]outSlot, 0, 16)
	writeOut := func(p int32, kept []outSlot) {
		merged := outScratch[:0]
		for _, s := range kept {
			if !inChanged[s.arc] {
				merged = append(merged, s)
			}
		}
		for _, c := range addOut[p] {
			merged = append(merged, outSlot{t.Arcs[c].To, c})
		}
		slices.SortFunc(merged, func(a, b outSlot) int { return int(a.arc - b.arc) })
		pos := st.FoStart[p]
		for _, s := range merged {
			st.FoAdj[pos], st.FoArc[pos] = s.adj, s.arc
			pos++
		}
		outScratch = merged[:0]
	}
	for p := range outDelta {
		writeOut(p, oldOut[p])
	}
	for p := prev.NumPins; p < t.NumPins; p++ {
		writeOut(int32(p), nil)
	}

	// Localized re-levelization over the patched CSRs — no adjacency rebuild,
	// no full-arc floor scan.
	lv, is, err := levelize.Incremental(t.NumPins, st.FoStart, st.FoAdj, st.FaninStart, st.FaninFrom, prev.levels(), seeds)
	if err != nil {
		return nil, is, err
	}
	st.NumLevels = lv.NumLevels
	st.LvLevel, st.LvOrder, st.LvLevelStart = lv.Level, lv.Order, lv.LevelStart

	// SP/EP rows, clock network and exception rows are untouched by
	// append/rewrite batches and stay shared via the struct copy above.
	return st, is, nil
}

// extendSlab returns s grown to length n: a fresh copy when the source must
// stay intact (owned=false), in place — reusing capacity when possible —
// when the caller owns it. Appended entries are unspecified; every patch
// site writes them explicitly.
func extendSlab[T any](s []T, n int, owned bool) []T {
	if !owned {
		c := make([]T, n)
		copy(c, s)
		return c
	}
	if cap(s) >= n {
		return s[:n]
	}
	// Grow with slack so a session applying many small batches reallocates
	// each slab O(log) times, not per edit.
	c := make([]T, n, n+n/8+16)
	copy(c, s)
	return c
}
