package core

// refInsertTopK is the paper's Algorithm 2 as the kernels ran it before the
// fill-tracked merge, kept verbatim as the test oracle: it knows no live
// count, finds the end of the queue by scanning to the noSP sentinel and
// starts every new-startpoint shift at slot K-1, moving the empties on the
// way. The kernels' insert must leave the same bits in all four planes
// (FuzzInsertTopK).
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

// testQueue is one empty K-slot queue with its live count, for driving the
// kernels' insert the way a merge does.
type testQueue struct {
	queues
	n int
}

func newTestQueue(k int) *testQueue {
	q := &testQueue{queues: newQueues(k)}
	clearQueue(q.arr, q.sp)
	return q
}

func (q *testQueue) insert(a, m, s float64, sp int32) {
	q.n = q.queues.insert(0, q.n, len(q.arr), a, m, s, sp)
}
