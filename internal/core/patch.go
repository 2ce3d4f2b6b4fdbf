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

// Patch applies one structural batch to e in place — buffers spliced in or
// bypassed, arcs re-annotated — and leaves e fully evaluated over the edited
// state, bit-identical to a cold engine over it: e's state slabs are patched,
// re-levelized from the seeds and reseeded (reseed). edits lists every arc row
// the batch writes, appended ids continuing e's arc range without gaps;
// newPins counts the pins it appends; seeds are the pins whose fan-in set or
// fan-in delay changed, appended pins included. No pin's fan-in count may
// change — insert, bypass and annotate never change one. e's state slabs must
// be its own: a Fork's, or those NewEngine compiled, never those of a state
// NewEngineFromState was given. The row units, the arc ids, the pins and the
// seeds (each in range, every appended pin among them) are checked before the
// first write, so a refused batch leaves e as it was; no op batch can
// introduce a levelize cycle (an insert adds an edge only via a fresh pin, a
// bypass shortcuts an existing path).
func (e *Engine) Patch(edits []ArcEdit, newPins int, seeds []int32) (levelize.IncStats, error) {
	if err := e.checkRowUnits(e.st.NumPins + newPins); err != nil {
		return levelize.IncStats{}, err
	}
	// A pin an edited arc no longer leaves from has lost a fan-out, so the
	// reseed re-derives its status too; only the state before the patch still
	// says which pin that was.
	reseeds := slices.Clip(seeds)
	for _, ed := range edits {
		if ed.ID >= 0 && int(ed.ID) < len(e.st.ArcFrom) && e.st.ArcFrom[ed.ID] != ed.Row.From {
			reseeds = append(reseeds, e.st.ArcFrom[ed.ID])
		}
	}
	sp := e.opt.Tracer.StartArg("engine-patch", "edits", int64(len(edits)))
	st, is, err := compileIncrementalPatched(e.st, edits, newPins, seeds)
	sp.End()
	if err != nil {
		return is, err
	}
	e.reseed(st, reseeds)
	return is, nil
}

// compileIncrementalPatched recompiles prev after Patch's batch by patching
// prev's slabs in place; prev must not be used again. All shape
// violations are detected before the first write.
func compileIncrementalPatched(prev *State, edits []ArcEdit, newPins int, seeds []int32) (*State, levelize.IncStats, error) {
	var is levelize.IncStats
	if newPins < 0 {
		return nil, is, fmt.Errorf("core: patch: %d new pins (ids are append-only)", newPins)
	}
	prevArcs := len(prev.ArcFrom)
	numPins := prev.NumPins + newPins
	seeded := make([]bool, newPins)
	for _, p := range seeds {
		if p < 0 || int(p) >= numPins {
			return nil, is, fmt.Errorf("core: patch: seed pin %d out of range [0,%d)", p, numPins)
		}
		if int(p) >= prev.NumPins {
			seeded[int(p)-prev.NumPins] = true
		}
	}
	if i := slices.Index(seeded, false); i >= 0 {
		return nil, is, fmt.Errorf("core: patch: appended pin %d is not a seed", prev.NumPins+i)
	}

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

	// Capture the pre-edit segments of every affected existing pin before the
	// rewrite changes the slabs under us. A pin is affected when an edited arc
	// attaches to or detaches from it — or keeps it but changes content.
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

	// From here on the state is mutated; no error can be reported short of
	// the unreachable levelize cycle.
	st := new(State)
	*st = *prev
	st.NumPins = numPins

	for rf := 0; rf < 2; rf++ {
		st.ArcMean[rf] = extendSlab(prev.ArcMean[rf], nArcs)
		st.ArcStd[rf] = extendSlab(prev.ArcStd[rf], nArcs)
	}
	st.ArcKind = extendSlab(prev.ArcKind, nArcs)
	st.ArcCell = extendSlab(prev.ArcCell, nArcs)
	st.ArcNet = extendSlab(prev.ArcNet, nArcs)
	st.ArcFrom = extendSlab(prev.ArcFrom, nArcs)
	st.ArcTo = extendSlab(prev.ArcTo, nArcs)
	for _, ed := range chg {
		c, a := ed.ID, &ed.Row
		st.ArcMean[liberty.Rise][c], st.ArcStd[liberty.Rise][c] = a.MeanRise, a.StdRise
		st.ArcMean[liberty.Fall][c], st.ArcStd[liberty.Fall][c] = a.MeanFall, a.StdFall
		st.ArcKind[c], st.ArcCell[c], st.ArcNet[c] = a.Kind, a.Cell, a.Net
		st.ArcFrom[c], st.ArcTo[c] = a.From, a.To
	}

	// Per-pin tables: appended pins are neither startpoints nor endpoints.
	st.SpOfPin = extendSlab(prev.SpOfPin, numPins)
	st.EpOfPin = extendSlab(prev.EpOfPin, numPins)
	for p := prev.NumPins; p < numPins; p++ {
		st.SpOfPin[p], st.EpOfPin[p] = -1, -1
	}

	// Fan-in CSR: existing pins keep their slot ranges (net-zero deltas), so
	// the start array only gains the appended pins' prefix sums; affected
	// segments are rebuilt sorted by arc id — the order the full compile's
	// ascending arc scan yields.
	st.FaninStart = extendSlab(prev.FaninStart, numPins+1)
	for p := prev.NumPins; p < numPins; p++ {
		st.FaninStart[p+1] = st.FaninStart[p] + newInCount[p-prev.NumPins]
	}
	st.FaninArc = extendSlab(prev.FaninArc, nArcs)
	st.FaninFrom = extendSlab(prev.FaninFrom, nArcs)
	st.FaninSense = extendSlab(prev.FaninSense, nArcs)
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
	st.FoStart = extendSlab(prev.FoStart, numPins+1)
	st.FoAdj = extendSlab(prev.FoAdj, nArcs)
	st.FoArc = extendSlab(prev.FoArc, nArcs)
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

// extendSlab returns s grown to length n in place when its capacity allows,
// else a grown copy. Appended entries are unspecified; every patch site
// writes them explicitly.
func extendSlab[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return grown(s, n)
}

// grown returns a copy of s grown to length n, with slack so a session
// applying many small batches reallocates each slab O(log) times, not per
// edit.
func grown[T any](s []T, n int) []T {
	c := make([]T, n, n+n/8+16)
	copy(c, s)
	return c
}

// own returns a copy of s with the slack of a grown slab.
func own[T any](s []T) []T { return grown(s, len(s)) }

// fork returns a copy of st that owns every slab a patch rewrites — the arc
// slabs, the SP/EP pin maps and both CSRs — and shares the rest, which no
// patch writes (the level schedule is rebuilt, not rewritten).
func (st *State) fork() *State {
	c := *st
	for rf := 0; rf < 2; rf++ {
		c.ArcMean[rf], c.ArcStd[rf] = own(st.ArcMean[rf]), own(st.ArcStd[rf])
	}
	c.ArcKind, c.ArcCell, c.ArcNet = own(st.ArcKind), own(st.ArcCell), own(st.ArcNet)
	c.ArcFrom, c.ArcTo = own(st.ArcFrom), own(st.ArcTo)
	c.SpOfPin, c.EpOfPin = own(st.SpOfPin), own(st.EpOfPin)
	c.FaninStart, c.FaninArc, c.FaninFrom, c.FaninSense = own(st.FaninStart), own(st.FaninArc), own(st.FaninFrom), own(st.FaninSense)
	c.FoStart, c.FoAdj, c.FoArc = own(st.FoStart), own(st.FoAdj), own(st.FoArc)
	return &c
}
