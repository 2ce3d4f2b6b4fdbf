package refsta

import (
	"runtime"

	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/sched"
)

// pinCap returns the input capacitance presented by load pin p: the library
// pin cap for cell pins, the external load for primary outputs. It resolves
// the pin's name in its library cell; propagation reads the sinkCap copy
// computeLoads keeps, and only the frozen-slew estimates, which may run
// between a resize and the next update, ask afresh.
func (e *Engine) pinCap(p netlist.PinID) float64 {
	pin := &e.D.Pins[p]
	if pin.Cell == netlist.NoCell {
		return e.Con.OutputLoad[p]
	}
	lc := e.Lib.Cell(e.D.Cells[pin.Cell].LibCell)
	return lc.PinCap[e.D.LocalPinName(p)]
}

// computeLoads annotates every driver pin with its total capacitive load:
// wire capacitance plus sink pin capacitances. It also refreshes sinkCap, the
// per-sink pin capacitance the net-arc delays of this update read — every
// update runs it first, so a resize since the last one is absorbed here.
func (e *Engine) computeLoads() {
	for ni := range e.D.Nets {
		net := &e.D.Nets[ni]
		c := e.Par.Nets[ni].WireCap()
		for _, s := range net.Sinks {
			e.sinkCap[s] = e.pinCap(s)
			c += e.sinkCap[s]
		}
		e.load[net.Driver] = c
	}
}

// computeArcDelay annotates arc a's delay distributions and returns them.
// Cell arcs use NLDM lookups at the From pin's current worst slew and the To
// pin's load; net arcs use Elmore branch delay.
func (e *Engine) computeArcDelay(a *Arc) {
	if a.Kind == NetArc {
		d := e.Par.BranchDelay(a.Net, int(a.SinkIdx), e.sinkCap[a.To])
		a.Delay[liberty.Rise] = d
		a.Delay[liberty.Fall] = d
		return
	}
	lc := e.Lib.Cell(e.D.Cells[a.Cell].LibCell)
	la := &lc.Arcs[a.LibArc]
	load := e.load[a.To]
	for outRF := 0; outRF < 2; outRF++ {
		inRFs, n := a.Sense.InRFs(outRF)
		// The annotated arc delay is taken at the worst (largest) input slew
		// among the transitions that can cause this output transition —
		// graph-based analysis convention.
		worstSlew := e.slew[inRFs[0]][a.From]
		for i := 1; i < n; i++ {
			if s := e.slew[inRFs[i]][a.From]; s > worstSlew {
				worstSlew = s
			}
		}
		a.Delay[outRF] = num.Dist{
			Mean: la.Delay[outRF].Lookup(worstSlew, load),
			Std:  la.Sigma[outRF].Lookup(worstSlew, load),
		}
	}
}

// outSlewOf returns the slew candidate arc a contributes to its To pin for
// output transition rf, using already-annotated delay for net arcs.
func (e *Engine) outSlewOf(a *Arc, rf int) float64 {
	if a.Kind == NetArc {
		return e.Par.DegradeSlew(e.slew[rf][a.From], a.Delay[rf].Mean)
	}
	lc := e.Lib.Cell(e.D.Cells[a.Cell].LibCell)
	la := &lc.Arcs[a.LibArc]
	inRFs, n := a.Sense.InRFs(rf)
	worstSlew := e.slew[inRFs[0]][a.From]
	for i := 1; i < n; i++ {
		if s := e.slew[inRFs[i]][a.From]; s > worstSlew {
			worstSlew = s
		}
	}
	return la.OutSlew[rf].Lookup(worstSlew, e.load[a.To])
}

// initSourcePin seeds slew and the late (and, with hold on, early) arrival at
// a timing source (primary input or flip-flop clock pin) — the launch
// distribution for both — during a full update. Returns false if p is not a
// source.
func (e *Engine) initSourcePin(p netlist.PinID, s *mergeScratch) bool {
	pin := &e.D.Pins[p]
	var launch num.Dist
	var slew float64
	switch {
	case pin.IsClock:
		node, _ := e.D.Clock.SinkOf(p)
		launch = e.D.Clock.Arrival(node)
		slew = e.Cfg.ClockSlew
	case pin.Cell == netlist.NoCell && pin.Dir == netlist.Input:
		launch = e.Con.InputDelay[p]
		slew = e.Con.InputSlew[p]
		if slew == 0 {
			slew = e.Cfg.ClockSlew
		}
	default:
		return false
	}
	seed := func(slot *[]spArr) {
		list := s.arena.reserve(1)
		list[0] = spArr{sp: e.spOfPin[p], dist: launch}
		s.store(slot, list)
	}
	for rf := 0; rf < 2; rf++ {
		e.slew[rf][p] = slew
		seed(&e.arr[rf][p])
		if e.HoldEnabled() {
			seed(&e.arrMin[rf][p])
		}
	}
	return true
}

// processPin recomputes fan-in arc delays, worst slews and SP-resolved late
// (and, with hold on, early) arrivals at pin p. It returns true when any
// propagated value changed.
func (e *Engine) processPin(p netlist.PinID, s *mergeScratch) bool {
	if e.isSP[p] {
		// Source values are constant after init.
		return false
	}
	changed := false
	fanin := e.fanin.of(p)
	for _, ai := range fanin {
		a := &e.Arcs[ai]
		old := a.Delay
		e.computeArcDelay(a)
		if a.Delay != old {
			changed = true
		}
	}
	for rf := 0; rf < 2; rf++ {
		// Worst slew.
		var worst float64
		for _, ai := range fanin {
			if slew := e.outSlewOf(&e.Arcs[ai], rf); slew > worst {
				worst = slew
			}
		}
		if worst != e.slew[rf][p] {
			e.slew[rf][p] = worst
			changed = true
		}
		// SP-resolved arrival merges.
		if s.store(&e.arr[rf][p], e.mergeArrivals(p, rf, false, s)) {
			changed = true
		}
		if e.HoldEnabled() && s.store(&e.arrMin[rf][p], e.mergeArrivals(p, rf, true, s)) {
			changed = true
		}
	}
	return changed
}

// contribution is one term of a pin's merge: a fan-in parent's list and the
// arc delay that shifts it.
type contribution struct {
	parent []spArr
	delay  num.Dist
}

// mergeScratch is the working memory of one goroutine propagating pins: the
// gathered contributions of the pin in hand, and two buffers the folds of a
// multi-parent merge ping-pong between, each as long as the startpoint list,
// which bounds every arrival list. During a full update it also carries the
// participant's arena, and the last fold of a merge lands there directly.
type mergeScratch struct {
	contribs []contribution
	fold     [2][]spArr
	arena    *arena // nil outside a full update
}

func (e *Engine) newMergeScratch(a *arena) *mergeScratch {
	n := len(e.SPs)
	return &mergeScratch{fold: [2][]spArr{make([]spArr, n), make([]spArr, n)}, arena: a}
}

// store makes merged — what mergeArrivals just returned, or a seed written at
// the head of an arena reservation — the list in *slot, unless the slot
// already holds the same entries; it reports whether the slot changed. An
// unchanged slot keeps its old list, so repeating a full update rewrites
// nothing, and an incremental update allocates (exact size) only for the
// lists it really moves.
func (s *mergeScratch) store(slot *[]spArr, merged []spArr) bool {
	if spArrEqual(merged, *slot) {
		return false
	}
	switch {
	case len(merged) == 0:
		*slot = nil
	case s.arena != nil:
		*slot = s.arena.commit(len(merged))
	default:
		list := make([]spArr, len(merged))
		copy(list, merged)
		*slot = list
	}
	return true
}

// mergeArrivals merges all fan-in arc contributions at (p, rf), keeping per
// startpoint the maximum-corner (late) or minimum-early-corner (early)
// arrival distribution — the exact version of the paper's Top-K
// unique-startpoint merge. Contributions fold left in fan-in order: the first
// is shifted, each next is merged into the running list, and a tie keeps the
// earlier one; that order is part of the engine's contract (every tie-break
// of every golden digest depends on it). The result is only valid until the
// next merge on s; store keeps it.
func (e *Engine) mergeArrivals(p netlist.PinID, rf int, early bool, s *mergeScratch) []spArr {
	arr := &e.arr
	if early {
		arr = &e.arrMin
	}
	cs := s.contribs[:0]
	bound := 0
	for _, ai := range e.fanin.of(p) {
		a := &e.Arcs[ai]
		inRFs, n := a.Sense.InRFs(rf)
		for i := 0; i < n; i++ {
			if parent := arr[inRFs[i]][a.From]; len(parent) > 0 {
				cs = append(cs, contribution{parent: parent, delay: a.Delay[rf]})
				bound += len(parent)
			}
		}
	}
	s.contribs = cs
	// A list holds a startpoint at most once.
	bound = min(bound, len(e.SPs))
	var merged []spArr
	for k, c := range cs {
		// Fold k reads fold k-1's buffer and writes the other one; the last
		// fold of a full update writes the final list where it will live.
		out := s.fold[k&1]
		if k == len(cs)-1 && s.arena != nil {
			out = s.arena.reserve(bound)
		}
		merged = out[:mergeInto(out, merged, c.parent, c.delay, e.Cfg.NSigma, early)]
	}
	return merged
}

// mergeInto writes to out the merge of dst with src shifted by delay and
// returns its length; dst and src are sorted by startpoint and out, which
// aliases neither, has room for their union. On a shared startpoint the
// shifted src entry wins only when strictly worse — larger corner for late
// arrivals, smaller early corner for early ones — so ties keep dst. An empty
// dst makes it a plain shifted copy.
func mergeInto(out, dst, src []spArr, delay num.Dist, nSigma float64, early bool) int {
	i, j, n := 0, 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i].sp < src[j].sp:
			out[n] = dst[i]
			i++
		case dst[i].sp > src[j].sp:
			out[n] = spArr{sp: src[j].sp, dist: src[j].dist.Add(delay)}
			j++
		default:
			cand := src[j].dist.Add(delay)
			var wins bool
			if early {
				wins = cand.EarlyCorner(nSigma) < dst[i].dist.EarlyCorner(nSigma)
			} else {
				wins = cand.Corner(nSigma) > dst[i].dist.Corner(nSigma)
			}
			if wins {
				out[n] = spArr{sp: src[j].sp, dist: cand}
			} else {
				out[n] = dst[i]
			}
			i++
			j++
		}
		n++
	}
	n += copy(out[n:], dst[i:])
	for ; j < len(src); j++ {
		out[n] = spArr{sp: src[j].sp, dist: src[j].dist.Add(delay)}
		n++
	}
	return n
}

func spArrEqual(a, b []spArr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// arena carves the arrival lists one full-update participant produces out of
// large chunks, so a list costs no allocation of its own and is written
// once: reserve an upper bound, fill it, commit the length used. Chunks grow
// geometrically from arenaFirstChunk (a 100-cell design must not zero
// megabytes) to arenaMaxChunk entries. The arena itself lives only as long as
// the full update that created it; the chunks live as long as any list in
// them is stored, and are the garbage collector's after that.
type arena struct {
	free []spArr // unused tail of the current chunk
	next int     // entries the next chunk will hold
}

const (
	arenaFirstChunk = 1 << 6
	arenaMaxChunk   = 1 << 20
)

// reserve returns room for n entries at the head of the free space. Only a
// commit consumes it: the next reserve hands out the same room again.
func (a *arena) reserve(n int) []spArr {
	if n > len(a.free) {
		size := max(a.next, arenaFirstChunk, n)
		a.free = make([]spArr, size)
		a.next = min(2*size, arenaMaxChunk)
	}
	return a.free[:n]
}

// commit turns the first n entries of the last reservation into a list. Its
// capacity is its length, so nothing can append into the neighbouring list.
func (a *arena) commit(n int) []spArr {
	list := a.free[:n:n]
	a.free = a.free[n:]
	return list
}

// newPool returns the worker pool one timing update runs on, sized to the
// processors the runtime may use right now. The engine keeps none between
// updates: it has no Close, and an idle reference engine should hold no
// goroutines.
func newPool() *sched.Pool {
	return sched.New(runtime.GOMAXPROCS(0), 0)
}

// UpdateTimingFull recomputes loads, delays, slews, arrivals and endpoint
// slacks over the whole design, the equivalent of a from-scratch
// update_timing in the reference tool. Pins of one level are independent —
// each writes its own fan-in arcs' delays, its own slews and lists, and reads
// only lower levels — so every level is one launch on the pool, each
// participant merging through its own scratch into its own arena. Which
// arena a list lands in depends on the schedule; no value does.
func (e *Engine) UpdateTimingFull() {
	e.computeLoads()
	pool := newPool()
	defer pool.Close()
	scratch := make([]*mergeScratch, pool.Workers())
	for i := range scratch {
		scratch[i] = e.newMergeScratch(new(arena))
	}
	for l := 0; l < e.Lv.NumLevels; l++ {
		nodes := e.Lv.Nodes(l)
		pool.RunIndexed("refsta.sweep", l, len(nodes), func(id, lo, hi int) {
			s := scratch[id]
			for _, p := range nodes[lo:hi] {
				if pid := netlist.PinID(p); !e.initSourcePin(pid, s) {
					e.processPin(pid, s)
				}
			}
		})
	}
	e.computeSlacks(pool)
	e.dirty = make(map[netlist.PinID]bool)
	e.LastFullUpdate = true
}

// MarkDirty flags pin p for re-evaluation on the next incremental update.
// Resize and parasitic-change operations call this internally.
func (e *Engine) MarkDirty(p netlist.PinID) { e.dirty[p] = true }

// UpdateTimingIncremental re-propagates only the cone of influence of pins
// marked dirty since the last update, in level order, stopping wavefronts
// whose values converge — the selective re-propagation PrimeTime performs on
// incremental update_timing. Loads are recomputed (cheap) to absorb pin-cap
// changes. Endpoint slacks are refreshed.
func (e *Engine) UpdateTimingIncremental() {
	if len(e.dirty) == 0 {
		return
	}
	e.computeLoads()
	// Bucket the worklist by level.
	buckets := make([][]netlist.PinID, e.Lv.NumLevels)
	inQueue := make(map[netlist.PinID]bool, len(e.dirty)*4)
	push := func(p netlist.PinID) {
		if !inQueue[p] {
			inQueue[p] = true
			l := e.Lv.Level[p]
			buckets[l] = append(buckets[l], p)
		}
	}
	for p := range e.dirty {
		push(p)
	}
	s := e.newMergeScratch(nil)
	for l := 0; l < len(buckets); l++ {
		for i := 0; i < len(buckets[l]); i++ { // fanouts are always deeper, so buckets never grow behind the cursor
			p := buckets[l][i]
			if e.processPin(p, s) {
				for _, ai := range e.fanout.of(p) {
					push(e.Arcs[ai].To)
				}
			}
		}
	}
	pool := newPool()
	defer pool.Close()
	e.computeSlacks(pool)
	e.dirty = make(map[netlist.PinID]bool)
	e.LastFullUpdate = false
}
