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
// empty slots; the kernels' queues derive theirs, so their insert must leave
// the same bits in the three planes they store and every live slot's derived
// key must be the bits the reference holds in arr (refQueue.diff,
// FuzzInsertTopK).
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

// testQueue is one empty K-slot queue with its live count, for driving the
// kernels' insert the way a late merge does.
type testQueue struct {
	queues
	n int
}

func newTestQueue(k int) *testQueue {
	q := &testQueue{queues: newQueues(k)}
	clearQueue(q.sp)
	return q
}

// insert feeds the entry (m, s) of startpoint sp; its ordering key is
// m + testNS*s (the unit tests pass s = 0 and think in keys).
func (q *testQueue) insert(m, s float64, sp int32) {
	q.n = q.queues.insert(0, q.n, len(q.sp), m, s, sp, 1, testNS)
}

// key returns slot i's ordering key.
func (q *testQueue) key(i int) float64 { return orderKey(q.mean[i], q.std[i], 1, testNS) }
