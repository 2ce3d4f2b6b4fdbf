package core

// The tensor layout's two contracts that no result depends on, so no golden
// would notice: rows follow the level order an engine is built over, and
// MemoryBytes reports what the tensors really occupy. What a row holds — its
// pin's capacity — is held in TestRowCapacity.

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// inLevelOrder reports whether e's rows are laid out in its level order: from
// unit 0, each row starting where the previous one ends, the last ending where
// the engine's rows do.
func inLevelOrder(e *Engine) bool {
	if len(e.rows) != len(e.st.LvOrder) {
		return false
	}
	next := int32(0)
	for _, p := range e.st.LvOrder {
		if e.rows[p].off != next {
			return false
		}
		next += e.rows[p].slots()
	}
	return int(next) == e.rowUnits
}

// TestRowsFollowLevelOrder: a cold engine's rows are its level order, and so
// are those of an engine booted from an exported state (the snapshot path) —
// even the state of a reseeded engine whose own rows have drifted, because the
// layout is derived at build time and never travels with the state. What a
// reseed does to the rows is held in TestPackedTailInvariant.
func TestRowsFollowLevelOrder(t *testing.T) {
	h := buildHarness(t, testSpec(85))
	opt := Options{TopK: 4, Hold: true, Workers: 1}
	cold, err := NewEngine(h.tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if !inLevelOrder(cold) {
		t.Fatal("cold engine: rows do not follow the level order")
	}
	cold.Run()

	edited, seeds := structuralEdit(t, h.tab, cold)
	st, err := Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	reseeded := reseedOnto(cold, st, seeds, true)
	defer reseeded.Close()
	if inLevelOrder(reseeded) {
		t.Fatal("the edit left the reseeded engine in level order — the boot check below is vacuous")
	}
	booted, err := NewEngineFromState(reseeded.ExportState(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if !inLevelOrder(booted) {
		t.Fatal("engine booted from an exported state: rows do not follow the level order")
	}
	if !slices.Equal(booted.Run(), reseeded.Slacks()) {
		t.Fatal("booted engine's slacks differ from the reseeded engine's")
	}
}

// TestMemoryBytesCountsTensors holds MemoryBytes' tensor term to the slabs:
// queues.bytes to what newQueues takes from the allocator, the engine's term
// to the lengths of the planes it holds — S slots per row unit, every unit
// allocated, both transitions — and the reported figure to that term plus the
// row spans (two engines that differ in K differ by their tensors and by
// nothing else).
func TestMemoryBytesCountsTensors(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q := newQueues(1 << 20)
	runtime.ReadMemStats(&after)
	got, want := int64(after.TotalAlloc-before.TotalAlloc), q.bytes()
	if got < want || got > want+want/100 {
		t.Fatalf("newQueues(1<<20) allocated %d bytes, queues.bytes reports %d", got, want)
	}

	h := buildHarness(t, testSpec(86))
	slabs := func(e *Engine) int64 {
		var b int64
		for _, q := range []*queues{e.top.q, e.hold.q} {
			b += int64(len(q.mean)+len(q.std))*8 + int64(len(q.sp))*4
		}
		return b
	}
	var mem, tensors [2]int64
	for i, k := range []int{2, 8} {
		e, err := NewEngine(h.tab, Options{TopK: k, Hold: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if len(e.rows) != e.st.NumPins || len(e.top.q.sp) != 2*e.capUnits*len(e.scns) || len(e.hold.q.sp) != len(e.top.q.sp) {
			t.Fatalf("K=%d: rows %d / slots %d, %d do not match %d pins in %d units", k, len(e.rows), len(e.top.q.sp), len(e.hold.q.sp), e.st.NumPins, e.capUnits)
		}
		if e.tensorBytes() != slabs(e) {
			t.Fatalf("K=%d: tensor term %d, slabs hold %d", k, e.tensorBytes(), slabs(e))
		}
		units := 0
		for _, r := range e.rows {
			if r.stored() {
				units += int(r.k)
			}
		}
		if want := int64(2*20*len(e.scns)*units) * 2; slabs(e) != want {
			t.Fatalf("K=%d: slabs hold %d B, 2 x 20 B x S x (Σcap of stored pins %d) x 2 is %d", k, slabs(e), units, want)
		}
		if e.MemoryBytes() < slabs(e)+int64(len(e.rows))*int64(unsafe.Sizeof(rowSpan{})) {
			t.Fatalf("K=%d: MemoryBytes %d does not cover the tensors %d and the row spans", k, e.MemoryBytes(), slabs(e))
		}
		mem[i], tensors[i] = e.MemoryBytes(), slabs(e)
	}
	if mem[1]-mem[0] != tensors[1]-tensors[0] || mem[0] <= tensors[0] {
		t.Fatalf("MemoryBytes %v does not move with the tensors %v", mem, tensors)
	}

	// The first pass allocates the engine's one set of merge scratch, and the
	// figure grows by exactly its slabs: per participant a table entry per
	// startpoint, the gathered fan-in's and the resolved parents' backing
	// arrays, the replayed chain's, and the regions derived parents are
	// replayed into.
	e, err := NewEngine(h.tab, Options{TopK: 2, Hold: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	idle := e.MemoryBytes()
	e.Run()
	if len(e.scratchFree) != 1 || len(e.scratchFree[0]) != 2 {
		t.Fatalf("after one pass the free list holds %d sets, want one of 2 participants", len(e.scratchFree))
	}
	var scratch int64
	for _, ms := range e.scratchFree[0] {
		if len(ms.at) != len(e.st.SpPin) || cap(ms.fan) == 0 || len(ms.rows.sp) == 0 {
			t.Fatalf("scratch indexes %d startpoints of %d, fan-in capacity %d, replay slots %d", len(ms.at), len(e.st.SpPin), cap(ms.fan), len(ms.rows.sp))
		}
		scratch += int64(len(ms.at))*8 + int64(cap(ms.fan))*int64(unsafe.Sizeof(faninContrib{})) +
			int64(cap(ms.par))*int64(unsafe.Sizeof(rowRef{})) + int64(cap(ms.hops))*4 +
			int64(len(ms.rows.mean)+len(ms.rows.std))*8 + int64(len(ms.rows.sp))*4
	}
	if got := e.MemoryBytes() - idle; got != scratch {
		t.Fatalf("MemoryBytes grew by %d over the first pass, the scratch slabs hold %d", got, scratch)
	}
}
