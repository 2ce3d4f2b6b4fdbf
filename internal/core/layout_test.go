package core

// The tensor layout's two contracts that no result depends on, so no golden
// would notice: rows follow the level order an engine is built over, and
// MemoryBytes reports what the tensors really occupy.

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// inLevelOrder reports whether e's row map is the inverse of its level order.
func inLevelOrder(e *Engine) bool {
	if len(e.row) != len(e.lv.Order) {
		return false
	}
	for i, p := range e.lv.Order {
		if e.row[p] != int32(i) {
			return false
		}
	}
	return true
}

// TestRowsFollowLevelOrder: a cold engine's rows are its level order, and so
// are those of an engine booted from an exported state (the snapshot path) —
// even the state of a reseeded engine whose own rows have drifted, because the
// map is derived at build time and never travels with the state. What a
// Reseed does to the map is held in TestPackedTailInvariant.
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
	st, _, err := CompileIncremental(edited, cold.st, seeds)
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := cold.Reseed(st, seeds, false)
	if err != nil {
		t.Fatal(err)
	}
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
// to the lengths of the planes and the row map it holds, and the reported
// figure to that term (two engines that differ in K differ by their tensors
// and by nothing else).
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
		b := int64(len(e.row)) * 4
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
		if len(e.row) != e.numPins || len(e.top.q.sp) != 2*e.capPins*e.qstride {
			t.Fatalf("K=%d: row map %d / slots %d do not match %d pins", k, len(e.row), len(e.top.q.sp), e.numPins)
		}
		if e.tensorBytes() != slabs(e) {
			t.Fatalf("K=%d: tensor term %d, slabs hold %d", k, e.tensorBytes(), slabs(e))
		}
		mem[i], tensors[i] = e.MemoryBytes(), slabs(e)
	}
	if mem[1]-mem[0] != tensors[1]-tensors[0] || mem[0] <= tensors[0] {
		t.Fatalf("MemoryBytes %v does not move with the tensors %v", mem, tensors)
	}

	// The first pass allocates the engine's one set of merge scratch, and the
	// figure grows by exactly its slabs: per participant a table entry per
	// startpoint and the gathered fan-in's backing array.
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
		if len(ms.at) != len(e.spPin) || cap(ms.fan) == 0 {
			t.Fatalf("scratch indexes %d startpoints of %d, fan-in capacity %d", len(ms.at), len(e.spPin), cap(ms.fan))
		}
		scratch += int64(len(ms.at))*8 + int64(cap(ms.fan))*int64(unsafe.Sizeof(faninContrib{}))
	}
	if got := e.MemoryBytes() - idle; got != scratch {
		t.Fatalf("MemoryBytes grew by %d over the first pass, the scratch slabs hold %d", got, scratch)
	}
}
