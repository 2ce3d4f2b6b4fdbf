package core

// The paper argues (§III-E) that heap-based priority queues are a poor fit
// for the per-thread Top-K structure: maintaining heap order costs more than
// O(K^2) scans over a tiny fixed array. This file carries a test-only
// heap-based implementation of the unique-startpoint Top-K queue and the
// ablation benchmarks comparing it against Algorithm 2's linear queue.

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// heapEntry is one queue element of the heap-based variant.
type heapEntry struct {
	arr, mean, std float64
	sp             int32
}

// minHeap orders entries by ascending arrival so the root is the eviction
// candidate.
type minHeap []heapEntry

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].arr < h[j].arr }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// heapTopK is the heap-based unique-startpoint Top-K queue.
type heapTopK struct {
	k    int
	h    minHeap
	bySP map[int32]int // sp -> heap index (maintained on the side)
}

func newHeapTopK(k int) *heapTopK {
	return &heapTopK{k: k, bySP: make(map[int32]int, k)}
}

func (q *heapTopK) insert(a, m, s float64, sp int32) {
	if idx, ok := q.bySP[sp]; ok {
		if a <= q.h[idx].arr {
			return
		}
		q.h[idx] = heapEntry{a, m, s, sp}
		heap.Fix(&q.h, idx)
		q.reindex()
		return
	}
	if len(q.h) < q.k {
		heap.Push(&q.h, heapEntry{a, m, s, sp})
		q.reindex()
		return
	}
	if a <= q.h[0].arr {
		return
	}
	delete(q.bySP, q.h[0].sp)
	q.h[0] = heapEntry{a, m, s, sp}
	heap.Fix(&q.h, 0)
	q.reindex()
}

// reindex rebuilds the sp index after heap movement — the bookkeeping cost
// the paper's complexity argument is about.
func (q *heapTopK) reindex() {
	for i := range q.h {
		q.bySP[q.h[i].sp] = i
	}
}

// sorted returns the entries in descending arrival order.
func (q *heapTopK) sorted() []heapEntry {
	out := append([]heapEntry(nil), q.h...)
	sort.Slice(out, func(i, j int) bool { return out[i].arr > out[j].arr })
	return out
}

// stream builds a deterministic contribution stream shaped like real merge
// traffic: nStream contributions drawn from nSPs startpoints.
func stream(seed int64, nStream, nSPs int) []heapEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]heapEntry, nStream)
	for i := range out {
		m := 100 + 400*rng.Float64()
		s := 1 + 5*rng.Float64()
		out[i] = heapEntry{arr: m + 3*s, mean: m, std: s, sp: int32(rng.Intn(nSPs))}
	}
	return out
}

func TestHeapAndLinearQueuesAgree(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		in := stream(7, 500, 40)

		lq := newTestQueue(k)
		hq := newHeapTopK(k)
		for _, e := range in {
			lq.insert(e.mean, e.std, e.sp)
			hq.insert(e.arr, e.mean, e.std, e.sp)
		}
		want := hq.sorted()
		for i := range want {
			if lq.sp[i] == noSP {
				t.Fatalf("k=%d: linear queue shorter than heap at %d", k, i)
			}
			if math.Abs(lq.key(i)-want[i].arr) > 1e-12 {
				t.Fatalf("k=%d slot %d: linear %v heap %v", k, i, lq.key(i), want[i].arr)
			}
		}
	}
}

func benchQueue(b *testing.B, k int, heapBased bool) {
	in := stream(11, 256, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heapBased {
			q := newHeapTopK(k)
			for _, e := range in {
				q.insert(e.arr, e.mean, e.std, e.sp)
			}
		} else {
			q := newTestQueue(k)
			for _, e := range in {
				q.insert(e.mean, e.std, e.sp)
			}
		}
	}
}

// The paper's §III-E ablation: linear fixed-size lists vs heap-based queues.
func BenchmarkAblation_QueueLinear_K8(b *testing.B)   { benchQueue(b, 8, false) }
func BenchmarkAblation_QueueHeap_K8(b *testing.B)     { benchQueue(b, 8, true) }
func BenchmarkAblation_QueueLinear_K32(b *testing.B)  { benchQueue(b, 32, false) }
func BenchmarkAblation_QueueHeap_K32(b *testing.B)    { benchQueue(b, 32, true) }
func BenchmarkAblation_QueueLinear_K128(b *testing.B) { benchQueue(b, 128, false) }
func BenchmarkAblation_QueueHeap_K128(b *testing.B)   { benchQueue(b, 128, true) }

// --- Fan-in merge microbenchmark ---
//
// benchQueue above feeds one long stream into one queue, which is full after
// K inserts, so it never measures what the forward kernel mostly does: merging
// a handful of descending parent queues that saw much the same startpoints
// into an *empty* destination. fanin builds that shape from what one forward
// pass over block-1 at K=32 counts: about 70 % of parent queues full, the rest
// partially filled; 77 % of the candidates a second or later parent brings
// carry a startpoint the destination already holds (the parents of a pin sit
// in one cone and rank its startpoints alike, a few ps apart), so most of the
// work is finding that entry, not shifting; and startpoint ids spread over a
// block-1-sized table. BenchmarkMergeFanin runs it through the kernels'
// indexed merge. The Ref variant replays the same candidates through the
// Algorithm-2 reference the way the kernels did before the merge was
// fill-tracked (clear all K slots, then one scanning refInsertTopK per
// candidate with the upper-bound reject in front).

// faninSPs is the startpoint count the microbenchmark's ids are drawn from:
// block-1's, so the index table has the kernel's footprint.
const faninSPs = 1600

// faninPin is one destination pin's parents: parent i's packed queue sits at
// src[i*k:] and is delayed by (am[i], as[i]).
type faninPin struct {
	parents int
	am, as  []float64
	src     queues
}

// fanin builds pins destination pins for queue depth k and returns them with
// the total number of candidates (live parent entries) one pass merges.
func fanin(seed int64, pins, k int) (out []faninPin, candidates int) {
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < pins; p++ {
		fp := faninPin{parents: 2 + rng.Intn(3)}
		fp.src = newQueues(fp.parents * k)
		clearQueue(fp.src.sp)
		// The startpoints this pin's cone can see, each with the arrival it
		// launches; a parent sees most of them, a few ps off.
		cone := make([]heapEntry, k+k/4+1)
		for i, sp := range rng.Perm(faninSPs)[:len(cone)] {
			cone[i] = heapEntry{mean: 300 + 200*rng.Float64(), std: 2 + 3*rng.Float64(), sp: int32(sp)}
		}
		for i := 0; i < fp.parents; i++ {
			fp.am = append(fp.am, 20+30*rng.Float64())
			fp.as = append(fp.as, 1+2*rng.Float64())
			n := k
			if rng.Float64() < 0.3 {
				n = 1 + rng.Intn(k)
			}
			var ents []heapEntry
			for _, c := range cone {
				if rng.Float64() < 0.85 {
					c.mean += 8 * rng.NormFloat64()
					c.arr = c.mean + testNS*c.std
					ents = append(ents, c)
				}
			}
			sort.Slice(ents, func(a, b int) bool { return ents[a].arr > ents[b].arr })
			ents = ents[:min(n, len(ents))]
			for j, e := range ents {
				b := i*k + j
				fp.src.mean[b], fp.src.std[b], fp.src.sp[b] = e.mean, e.std, e.sp
			}
			candidates += len(ents)
		}
		out = append(out, fp)
	}
	return out, candidates
}

// refMerge merges fp's parents into dst the way the kernels did before the
// merge was fill-tracked.
func (fp *faninPin) refMerge(dst *refQueue, k int) {
	dst.clear()
	for par := 0; par < fp.parents; par++ {
		am, as := fp.am[par], fp.as[par]
		for kk := par * k; kk < (par+1)*k && fp.src.sp[kk] != noSP; kk++ {
			m, pstd := fp.src.mean[kk]+am, fp.src.std[kk]
			if m+testNS*(pstd+as) <= dst.arr[k-1] {
				continue
			}
			sg := math.Sqrt(pstd*pstd + as*as)
			dst.insert(m+testNS*sg, m, sg, fp.src.sp[kk])
		}
	}
}

// merge merges fp's parents into dst through the kernels' merge on index ix.
func (fp *faninPin) merge(dst *queues, k int, ix *spIndex) {
	n := 0
	for par := 0; par < fp.parents; par++ {
		n = dst.merge(0, n, k, &fp.src, par*k, k, fp.am[par], fp.as[par], 1, testNS, ix)
	}
	dst.blankTail(0, n, k)
}

func benchMergeFanin(b *testing.B, k int, ref bool) {
	pins, cands := fanin(13, 64, k)
	dst, refDst := newQueues(k), newRefQueue(k)
	ix := &spIndex{at: make([]uint64, faninSPs)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi := range pins {
			if ref {
				pins[pi].refMerge(refDst, k)
			} else {
				pins[pi].merge(&dst, k, ix)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cands), "ns/candidate")
}

func BenchmarkMergeFanin_K8(b *testing.B)      { benchMergeFanin(b, 8, false) }
func BenchmarkMergeFanin_K32(b *testing.B)     { benchMergeFanin(b, 32, false) }
func BenchmarkMergeFanin_K128(b *testing.B)    { benchMergeFanin(b, 128, false) }
func BenchmarkMergeFanin_Ref_K8(b *testing.B)  { benchMergeFanin(b, 8, true) }
func BenchmarkMergeFanin_Ref_K32(b *testing.B) { benchMergeFanin(b, 32, true) }
func BenchmarkMergeFanin_Ref_K128(b *testing.B) {
	benchMergeFanin(b, 128, true)
}

// TestMergeFaninMatchesReference holds the two bodies of benchMergeFanin to
// the same answer, so the benchmark pair compares equal work — and the
// benchmark's input to the traffic it claims to model: the share of second-
// and-later-parent candidates whose startpoint is already queued, and the
// share of full parents, within a few points of the pass's counters.
func TestMergeFaninMatchesReference(t *testing.T) {
	for _, k := range []int{1, 8, 32} {
		pins, _ := fanin(13, 64, k)
		ix := &spIndex{at: make([]uint64, faninSPs)}
		var later, queued, parents, full int
		for pi := range pins {
			fp := &pins[pi]
			got, want := newQueues(k), newRefQueue(k)
			fp.merge(&got, k, ix)
			fp.refMerge(want, k)
			if err := want.diff(&got, 0, k, 1, testNS); err != nil {
				t.Fatalf("k=%d pin %d: merge diverged from the reference: %v\n got %v %v %v\nwant %v %v %v %v",
					k, pi, err, got.mean, got.std, got.sp, want.arr, want.mean, want.std, want.sp)
			}
			// Replay parent by parent to count what each later one found queued.
			want.clear()
			for par := 0; par < fp.parents; par++ {
				parents++
				if fp.src.sp[(par+1)*k-1] != noSP {
					full++
				}
				for kk := par * k; par > 0 && kk < (par+1)*k && fp.src.sp[kk] != noSP; kk++ {
					later++
					if slices.Contains(want.sp, fp.src.sp[kk]) {
						queued++
					}
				}
				want.merge(&fp.src, par*k, k, fp.am[par], fp.as[par])
			}
		}
		t.Logf("k=%d: %d/%d later-parent candidates already queued, %d/%d parents full", k, queued, later, full, parents)
		if k == 1 {
			continue // a one-slot queue's parents are all full and share at random
		}
		if share := float64(queued) / float64(later); share < 0.72 || share > 0.82 {
			t.Errorf("k=%d: %.0f%% of later-parent candidates were already queued, the kernel measures 77%%", k, 100*share)
		}
		if share := float64(full) / float64(parents); share < 0.6 || share > 0.8 {
			t.Errorf("k=%d: %.0f%% of parents are full, the kernel measures about 70%%", k, 100*share)
		}
	}
}
