package core

import (
	"fmt"
	"math"
)

// refInsertTopK is the paper's Algorithm 2 as the kernels ran it before the
// fill-tracked merge, kept verbatim as the test oracle: it knows no live
// count, finds the end of the queue by scanning to the noSP sentinel and
// starts every new-startpoint shift at slot K-1, moving the empties on the
// way. It still stores the ordering key as a fourth plane, arr, with -Inf in
// empty slots; the kernels' queues derive theirs, so their merge must leave
// the same bits in the three planes they store and every live slot's derived
// key must be the bits the reference holds in arr (refQueue.diff,
// FuzzMergeTopK). It is also the only place left that finds a startpoint by
// scanning the queue: the kernels look it up (spIndex).
func refInsertTopK(arr, mean, std []float64, sps []int32, a, m, s float64, sp int32) {
	k := len(arr)
	// Fast reject: a contribution at or below the current minimum can change
	// nothing — if its startpoint is already queued that entry is at least
	// arr[k-1] >= a, and if it is not queued it cannot displace anything.
	if a <= arr[k-1] {
		return
	}
	// Step 1: startpoint uniqueness check.
	for j := 0; j < k; j++ {
		if sps[j] == noSP {
			break
		}
		if sps[j] != sp {
			continue
		}
		if a <= arr[j] {
			return // existing entry dominates
		}
		arr[j], mean[j], std[j] = a, m, s
		// Bubble up: the increased value may beat entries above it.
		for j > 0 && arr[j-1] < arr[j] {
			arr[j-1], arr[j] = arr[j], arr[j-1]
			mean[j-1], mean[j] = mean[j], mean[j-1]
			std[j-1], std[j] = std[j], std[j-1]
			sps[j-1], sps[j] = sps[j], sps[j-1]
			j--
		}
		return
	}
	// Step 2: new startpoint; insert if it beats the smallest entry.
	if a <= arr[k-1] {
		return
	}
	j := k - 1
	for j > 0 && arr[j-1] < a {
		arr[j], mean[j], std[j], sps[j] = arr[j-1], mean[j-1], std[j-1], sps[j-1]
		j--
	}
	arr[j], mean[j], std[j], sps[j] = a, m, s, sp
}

// refQueue is one K-slot queue in the reference's four-plane shape.
type refQueue struct {
	arr, mean, std []float64
	sp             []int32
}

func newRefQueue(k int) *refQueue {
	r := &refQueue{arr: make([]float64, k), mean: make([]float64, k), std: make([]float64, k), sp: make([]int32, k)}
	r.clear()
	return r
}

func (r *refQueue) clear() {
	for i := range r.arr {
		r.arr[i], r.sp[i] = math.Inf(-1), noSP
	}
}

func (r *refQueue) insert(a, m, s float64, sp int32) {
	refInsertTopK(r.arr, r.mean, r.std, r.sp, a, m, s, sp)
}

// merge folds src's packed queue at pb, delayed by (am, as) and keyed late
// under testNS, into r: one Algorithm-2 insert per live parent entry, the
// composition written as the kernels write it.
func (r *refQueue) merge(src *queues, pb int, am, as float64) {
	for kk := pb; kk < pb+len(r.sp) && src.sp[kk] != noSP; kk++ {
		m := src.mean[kk] + am
		sg := math.Sqrt(src.std[kk]*src.std[kk] + as*as)
		r.insert(orderKey(m, sg, 1, testNS), m, sg, src.sp[kk])
	}
}

// diff holds the k-slot queue of q at b, ordered under (sign, ns), to the
// reference: all three stored planes bit-equal in every slot (both queues
// start zeroed, so a write past the live entries shows), the key derived from
// every live slot equal to the reference's stored one, and the reference's arr
// -Inf exactly where the slot is empty.
func (r *refQueue) diff(q *queues, b int, sign, ns float64) error {
	for i, rsp := range r.sp {
		m, s, sp := q.mean[b+i], q.std[b+i], q.sp[b+i]
		if sp != rsp || m != r.mean[i] || s != r.std[i] {
			return fmt.Errorf("slot %d: (mean, std, sp) = (%v, %v, %d), reference (%v, %v, %d)", i, m, s, sp, r.mean[i], r.std[i], rsp)
		}
		if empty := math.IsInf(r.arr[i], -1); empty != (rsp == noSP) {
			return fmt.Errorf("slot %d: reference holds arr=%v with sp=%d", i, r.arr[i], rsp)
		}
		if key := orderKey(m, s, sign, ns); rsp != noSP && key != r.arr[i] {
			return fmt.Errorf("slot %d: derived key %v, reference arr %v", i, key, r.arr[i])
		}
	}
	return nil
}

// testNS is the sigma multiple the queue unit tests order by (late, sign +1).
const testNS = 3.0

// testSPs is how many startpoints a testQueue's index covers.
const testSPs = 64

// testQueue is one empty K-slot queue with its live count and startpoint
// index, for driving the kernels' merge the way a late mergeFanin does.
type testQueue struct {
	queues
	n   int
	ix  spIndex
	one queues // insert's one-entry parent
}

func newTestQueue(k int) *testQueue {
	q := &testQueue{queues: newQueues(k), ix: spIndex{at: make([]uint64, testSPs)}, one: newQueues(k)}
	clearQueue(q.sp)
	clearQueue(q.one.sp)
	return q
}

// merge folds src's packed queue at pb, delayed by (am, as), into q.
func (q *testQueue) merge(src *queues, pb int, am, as float64) {
	q.n = q.queues.merge(0, q.n, len(q.sp), src, pb, am, as, 1, testNS, &q.ix)
}

// insert feeds the entry (m, s) of startpoint sp — a one-entry parent arriving
// through a zero-delay arc, which leaves m and s as they are — so from the
// second call on it is one pass of the indexed Algorithm 2. Its ordering key
// is m + testNS*s (the unit tests pass s = 0 and think in keys).
func (q *testQueue) insert(m, s float64, sp int32) {
	q.one.mean[0], q.one.std[0], q.one.sp[0] = m, s, sp
	q.merge(&q.one, 0, 0, 0)
}

// key returns slot i's ordering key.
func (q *testQueue) key(i int) float64 { return orderKey(q.mean[i], q.std[i], 1, testNS) }

// checkIndex holds q's index to its contract once it is loaded: under the
// current epoch, at[sp] names slot j exactly for the sps[j] of the live
// entries and is current for no other startpoint.
func (q *testQueue) checkIndex() error {
	if !q.ix.loaded {
		return nil
	}
	slot := make(map[int32]int, q.n)
	for j, sp := range q.sp[:q.n] {
		slot[sp] = j
	}
	for sp, ent := range q.ix.at {
		j, queued := slot[int32(sp)]
		switch current := uint32(ent>>slotBits) == q.ix.epoch; {
		case current && !queued:
			return fmt.Errorf("index holds startpoint %d at slot %d, the queue does not: sps %v", sp, uint32(ent), q.sp[:q.n])
		case queued && !current:
			return fmt.Errorf("startpoint %d is queued at slot %d, the index does not hold it", sp, j)
		case queued && int(uint32(ent)) != j:
			return fmt.Errorf("startpoint %d is queued at slot %d, the index says %d", sp, j, uint32(ent))
		}
	}
	return nil
}
