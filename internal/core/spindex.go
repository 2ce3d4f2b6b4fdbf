package core

import (
	"fmt"
	"math"
	"unsafe"
)

// spIndex maps a startpoint to the slot it occupies in the one destination
// queue a merge is filling, which turns Step 1 of Algorithm 2 — "is this
// startpoint queued, and where?" — from a scan of the live entries into one
// load. It is exact, not a hint: load enters the live entries when a second
// contribution reaches the queue, and merge keeps the entry of every slot it
// writes (the placed entry, each entry a shift moves, the evicted one), so a
// current entry always names the slot holding that startpoint and every
// startpoint without one is not queued.
//
// One table serves every queue a pool participant fills, one after the other:
// an entry is epoch<<slotBits | slot and is current only under the table's
// epoch, so starting the next queue is one increment.
type spIndex struct {
	at     []uint64 // per startpoint; zero is never current (epochs start at 1)
	epoch  uint32
	loaded bool // at describes the queue being filled (cleared by its first parent)
}

// slotBits is the width of an index entry's slot field; maxTopK is the deepest
// queue whose every slot it addresses on any platform.
const (
	slotBits = 32
	maxTopK  = math.MaxInt32
)

// load makes ix the index of a queue whose live startpoints are sps, under a
// fresh epoch. Once the 32-bit epoch wraps — a participant starts one per
// multi-parent queue, so hours into back-to-back passes — the table is
// scrubbed, or entries left from the first time around would read as current.
func (ix *spIndex) load(sps []int32) {
	ix.epoch++
	if ix.epoch == 0 {
		clear(ix.at)
		ix.epoch = 1
	}
	tag := uint64(ix.epoch) << slotBits
	for j, sp := range sps {
		ix.at[sp] = tag | uint64(j)
	}
	ix.loaded = true
}

// faninContrib is one contribution to a destination queue row: a parent's row of
// lane queues (lane s at b + s*K of q), the nominal delay of the arc it
// arrives through and the arc's kind, which selects each lane's scale factors.
type faninContrib struct {
	q      *queues
	b      int
	am, as float64
	kind   uint8
}

const faninContribBytes = int64(unsafe.Sizeof(faninContrib{}))

// mergeScratch is what one pool participant needs to merge a pin's fan-in:
// the startpoint index of the queue it is filling and the pin's gathered
// contributions (mergeFanin).
type mergeScratch struct {
	spIndex
	fan []faninContrib
}

// borrowScratch takes a set of merge scratch — one per pool participant,
// indexed by the scheduler's participant id — off the engine's free list for
// the duration of one full sweep or cone wave, allocating a set only when
// every existing one is out. The engine owns the sets and their number is the
// most waves that ever ran at once (overlays previewing concurrently over one
// base); sessions own none, so scratch memory is O(concurrent waves * workers
// * startpoints) however many overlays exist.
func (e *Engine) borrowScratch() []*mergeScratch {
	e.scratchMu.Lock()
	var set []*mergeScratch
	if n := len(e.scratchFree); n > 0 {
		set, e.scratchFree = e.scratchFree[n-1], e.scratchFree[:n-1]
	}
	e.scratchMu.Unlock()
	if set == nil {
		// Room for the widest fan-in (a non-unate arc contributes twice), so a
		// participant's first wide pin does not allocate mid-pass; a structural
		// edit that widens a pin lets append grow it.
		width := 0
		for p := 0; p < e.numPins; p++ {
			width = max(width, int(e.faninStart[p+1]-e.faninStart[p]))
		}
		set = make([]*mergeScratch, e.pool.Workers())
		for i := range set {
			set[i] = &mergeScratch{
				spIndex: spIndex{at: make([]uint64, len(e.spPin))},
				fan:     make([]faninContrib, 0, 2*width),
			}
		}
	}
	// An in-place Reseed keeps the startpoint set, so every set on the list
	// still covers it; one that did not would index out of range mid-kernel.
	if len(set[0].at) != len(e.spPin) {
		panic(fmt.Sprintf("core: merge scratch indexes %d startpoints, engine has %d", len(set[0].at), len(e.spPin)))
	}
	return set
}

// returnScratch puts a borrowed set back on the free list.
func (e *Engine) returnScratch(set []*mergeScratch) {
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, set)
	e.scratchMu.Unlock()
}

// scratchBytes is the allocated size of the merge scratch on the free list —
// all of it while no sweep or wave is running.
func (e *Engine) scratchBytes() int64 {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	var b int64
	for _, set := range e.scratchFree {
		for _, ms := range set {
			b += int64(len(ms.at))*8 + int64(cap(ms.fan))*faninContribBytes
		}
	}
	return b
}
