package core

// Patched recompilation: the one recompile under structural ECO sessions.
// Compile rebuilds every O(arcs) slab of the State from the tables — fan-in
// CSR, annotation planes, fan-out CSR — which would dominate the cost of a
// small edit on a large design. An op batch (buffers spliced in or bypassed,
// arcs re-annotated) leaves the previous compiled state different from the
// next one only in the rows the batch wrote — its ArcEdits — so this file
// patches those rows instead: per-arc slabs are extended and overwritten at
// the edited ids, and the fan-in CSR is repaired segment by segment for just
// the pins whose adjacency changed. The fan-out CSR is patched the same way unless a
// bypass moved a wire from the buffer's output to its driver, which changes
// existing pins' fan-out counts; then it is rebuilt with the counting sort
// Compile uses. Repaired segments are re-sorted by arc id, which is exactly
// the order the full compile's ascending arc scan produces — so the patched
// State is bit-identical, slab for slab, to Compile of the same edited
// tables (the topo differential suite pins this against the cold oracle).

import (
	"fmt"
	"slices"

	"insta/internal/circuitops"
	"insta/internal/levelize"
	"insta/internal/liberty"
)

// ArcEdit is one arc row a structural batch writes: an existing id rewritten
// in place, or an appended one.
type ArcEdit struct {
	ID  int32
	Row circuitops.ArcRow
}

// CompileIncrementalPatched recompiles prev after a structural batch by
// patching prev's slabs rather than rebuilding them. edits lists every row the
// batch writes, including every appended id (appended ids must continue prev's
// arc range without gaps); newPins counts the pins it appends; seeds is the
// re-levelization seed set (pins whose fan-in changed). No pin's fan-in count
// may change — insert, bypass and annotate never change one.
//
// owned declares that prev is private to the caller (the typical case: the
// previous patched state of the same session) and may be cannibalized — its
// slabs are extended and rewritten in place, so prev must not be used again.
// With owned=false the touched slabs are copied first and prev stays intact
// (the session's first edit patches the shared base state this way).
//
// All shape violations are detected before the first write; the only
// post-mutation failure is a levelize cycle, which no op batch can introduce
// (an insert adds an edge only via a fresh intermediate pin, a bypass
// shortcuts a path that already existed).
func CompileIncrementalPatched(prev *State, edits []ArcEdit, newPins int, seeds []int32, owned bool) (*State, levelize.IncStats, error) {
	var is levelize.IncStats
	if prev == nil {
		return nil, is, fmt.Errorf("core: CompileIncrementalPatched requires a previous state")
	}
	if newPins < 0 {
		return nil, is, fmt.Errorf("core: patch: %d new pins (ids are append-only)", newPins)
	}
	prevArcs := len(prev.ArcFrom)
	numPins := prev.NumPins + newPins

	chg := slices.Clone(edits)
	slices.SortFunc(chg, func(a, b ArcEdit) int { return int(a.ID - b.ID) })
	nArcs := prevArcs
	inChanged := make(map[int32]bool, len(chg))
	for _, ed := range chg {
		if ed.ID < 0 || inChanged[ed.ID] {
			return nil, is, fmt.Errorf("core: patch: edited arc %d out of range or repeated", ed.ID)
		}
		inChanged[ed.ID] = true
		nArcs = max(nArcs, int(ed.ID)+1)
	}
	for i := prevArcs; i < nArcs; i++ {
		if !inChanged[int32(i)] {
			return nil, is, fmt.Errorf("core: patch: appended arc %d missing from the edit set", i)
		}
	}

	// Per-pin adjacency deltas. Existing pins must come out net-zero on the
	// fan-in side; a non-zero fan-out delta (a bypass) sends the fan-out CSR
	// to a full rebuild. The appended pins' counts extend the CSRs.
	type inSlot struct {
		arc, from int32
		sense     uint8
	}
	type outSlot struct {
		adj, arc int32
	}
	inDelta := make(map[int32]int32)
	outDelta := make(map[int32]int32)
	newInCount := make([]int32, newPins)
	newOutCount := make([]int32, newPins)
	addIn := make(map[int32][]inSlot)   // edited arcs by new To, ascending (chg is sorted)
	addOut := make(map[int32][]outSlot) // edited arcs by new From, ascending
	for _, ed := range chg {
		c, row := ed.ID, &ed.Row
		if row.From < 0 || int(row.From) >= numPins || row.To < 0 || int(row.To) >= numPins {
			return nil, is, fmt.Errorf("core: patch: arc %d joins pins outside [0,%d)", c, numPins)
		}
		addIn[row.To] = append(addIn[row.To], inSlot{c, row.From, row.Sense})
		addOut[row.From] = append(addOut[row.From], outSlot{row.To, c})
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
	for p, d := range inDelta {
		if d != 0 {
			return nil, is, fmt.Errorf("core: patch: pin %d's fan-in count changed by %d", p, d)
		}
	}
	rebuildFo := false
	for _, d := range outDelta {
		if d != 0 {
			rebuildFo = true
			break
		}
	}

	// Capture the pre-edit segments of every affected existing pin before any
	// in-place rewrite (with owned=true the source slabs are about to change
	// under us). A pin is affected when an edited arc attaches to or detaches
	// from it — or keeps it but changes content (rewritten in place).
	oldIn := make(map[int32][]inSlot, len(inDelta))
	for p := range inDelta {
		seg := make([]inSlot, 0, prev.FaninStart[p+1]-prev.FaninStart[p])
		for pos := prev.FaninStart[p]; pos < prev.FaninStart[p+1]; pos++ {
			seg = append(seg, inSlot{prev.FaninArc[pos], prev.FaninFrom[pos], prev.FaninSense[pos]})
		}
		oldIn[p] = seg
	}
	var oldOut map[int32][]outSlot
	if !rebuildFo {
		oldOut = make(map[int32][]outSlot, len(outDelta))
		for p := range outDelta {
			seg := make([]outSlot, 0, prev.FoStart[p+1]-prev.FoStart[p])
			for pos := prev.FoStart[p]; pos < prev.FoStart[p+1]; pos++ {
				seg = append(seg, outSlot{prev.FoAdj[pos], prev.FoArc[pos]})
			}
			oldOut[p] = seg
		}
	}

	// From here on the state is mutated (or copied, owned=false); no error
	// can be reported short of the unreachable levelize cycle.
	st := new(State)
	*st = *prev
	st.NumPins = numPins

	for rf := 0; rf < 2; rf++ {
		st.ArcMean[rf] = extendSlab(prev.ArcMean[rf], nArcs, owned)
		st.ArcStd[rf] = extendSlab(prev.ArcStd[rf], nArcs, owned)
	}
	st.ArcKind = extendSlab(prev.ArcKind, nArcs, owned)
	st.ArcCell = extendSlab(prev.ArcCell, nArcs, owned)
	st.ArcNet = extendSlab(prev.ArcNet, nArcs, owned)
	st.ArcFrom = extendSlab(prev.ArcFrom, nArcs, owned)
	st.ArcTo = extendSlab(prev.ArcTo, nArcs, owned)
	for _, ed := range chg {
		c, a := ed.ID, &ed.Row
		st.ArcMean[liberty.Rise][c], st.ArcStd[liberty.Rise][c] = a.MeanRise, a.StdRise
		st.ArcMean[liberty.Fall][c], st.ArcStd[liberty.Fall][c] = a.MeanFall, a.StdFall
		st.ArcKind[c], st.ArcCell[c], st.ArcNet[c] = a.Kind, a.Cell, a.Net
		st.ArcFrom[c], st.ArcTo[c] = a.From, a.To
	}

	// Per-pin tables: appended pins are neither startpoints nor endpoints.
	st.SpOfPin = extendSlab(prev.SpOfPin, numPins, owned)
	st.EpOfPin = extendSlab(prev.EpOfPin, numPins, owned)
	for p := prev.NumPins; p < numPins; p++ {
		st.SpOfPin[p], st.EpOfPin[p] = -1, -1
	}

	// Fan-in CSR: existing pins keep their slot ranges (net-zero deltas), so
	// the start array only gains the appended pins' prefix sums; affected
	// segments are rebuilt sorted by arc id — the order the full compile's
	// ascending arc scan yields.
	st.FaninStart = extendSlab(prev.FaninStart, numPins+1, owned)
	for p := prev.NumPins; p < numPins; p++ {
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
		merged = append(merged, addIn[p]...)
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
	for p := prev.NumPins; p < numPins; p++ {
		writeIn(int32(p), nil)
	}

	// Fan-out CSR (slot content is the arc's head pin + arc id): rebuilt from
	// the patched arc slabs after a bypass, otherwise patched like the fan-in.
	st.FoStart = extendSlab(prev.FoStart, numPins+1, owned)
	st.FoAdj = extendSlab(prev.FoAdj, nArcs, owned)
	st.FoArc = extendSlab(prev.FoArc, nArcs, owned)
	if rebuildFo {
		fanoutCSR(st.ArcFrom, st.ArcTo, st.FoStart, st.FoAdj, st.FoArc)
	} else {
		for p := prev.NumPins; p < numPins; p++ {
			st.FoStart[p+1] = st.FoStart[p] + newOutCount[p-prev.NumPins]
		}
		outScratch := make([]outSlot, 0, 16)
		writeOut := func(p int32, kept []outSlot) {
			merged := outScratch[:0]
			for _, s := range kept {
				if !inChanged[s.arc] {
					merged = append(merged, s)
				}
			}
			merged = append(merged, addOut[p]...)
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
		for p := prev.NumPins; p < numPins; p++ {
			writeOut(int32(p), nil)
		}
	}

	// Localized re-levelization over the patched CSRs — no adjacency rebuild,
	// no full-arc floor scan.
	lv, is, err := levelize.Incremental(numPins, st.FoStart, st.FoAdj, st.FaninStart, st.FaninFrom,
		&levelize.Result{Level: prev.LvLevel, NumLevels: prev.NumLevels, Order: prev.LvOrder, LevelStart: prev.LvLevelStart}, seeds)
	if err != nil {
		return nil, is, err
	}
	st.NumLevels = lv.NumLevels
	st.LvLevel, st.LvOrder, st.LvLevelStart = lv.Level, lv.Order, lv.LevelStart

	// SP/EP rows, clock network and exception rows are untouched by op
	// batches and stay shared via the struct copy above.
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
