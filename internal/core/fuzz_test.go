package core

import (
	"math"
	"testing"
)

// FuzzMergeTopK builds up to four packed parent queues from a byte stream and
// merges them, one after the other, into one destination through the kernels'
// indexed merge and through the Algorithm-2 reference (refInsertTopK, which
// finds a startpoint by scanning). After every parent it requires the kernels'
// three planes to hold the reference's bits — startpoint tie-breaks included —
// every live slot's derived key to be the reference's stored arr, the live
// count to be the reference's packed length, and the startpoint index to be
// exact (testQueue.checkIndex). On top of that differential the finished queue
// is checked against the brute-force oracle for every invariant the
// propagation kernels rely on:
//
//   - the kept arrivals equal "max per startpoint, then K largest";
//   - entries are in descending arrival order;
//   - startpoints are unique;
//   - empty slots are packed at the tail (noSP marker).
//
// Bytes decode two per parent entry: key = b0 (a coarse grid that makes
// duplicate keys, displacement ties and same-startpoint raises common),
// parent = b1 >> 6, sp = (b1 & 63) % 10. A parent is whatever Top-K queue its
// entries make (fed to a reference queue in stream order), so it is packed,
// descending and unique as the kernels' parents are, and it may be empty.
// Sigma carries the entry's ordinal so a swapped or stale payload plane shows,
// and the mean is what puts the entry's key on b0 (all three are small
// multiples of 1/2, so the key is exact). Parent p arrives through an arc of
// mean p; bit 3+p of kByte gives that arc a sigma of 2, which takes its keys
// off the grid and opens the gap between the no-sqrt upper bound and the exact
// key that the two dominated-by-own-entry tests sit on either side of.
func FuzzMergeTopK(f *testing.F) {
	const p1, p2 = 1 << 6, 2 << 6
	// Algorithm-2 edge cases as seeds.
	// Duplicate SP update: same startpoint arrives twice, larger second.
	f.Add(uint8(3), []byte{10, 1, 20, p1 | 1})
	// Duplicate SP with a smaller second arrival (must be ignored).
	f.Add(uint8(3), []byte{20, 1, 10, p1 | 1})
	// Displacement at k-1: full queue, new sp lands exactly above the min.
	f.Add(uint8(1), []byte{30, 1, 10, 2, 20, p1 | 3})
	// Bubble-up: in-place update that must rise past two entries.
	f.Add(uint8(3), []byte{30, 1, 20, 2, 10, 3, 40, p1 | 3})
	// Saturating duplicates across a tiny queue, sigma on the second arc.
	f.Add(uint8(1|1<<4), []byte{5, 0, 9, 1, 7, p1 | 0, 9, p1 | 2, 1, p2 | 1})
	// testdata/fuzz/FuzzMergeTopK holds the fill-tracking cases: partial_fill
	// (a second parent into 2 of 8 slots: the shift starts at the live count),
	// fill_to_full (the n = K-1 -> K transition, then a displacement and a
	// reject when full), update_bubbles_to_front (an in-place update of the
	// last live entry that rises to slot 0 past a tie) and
	// raise_evicted_startpoint (a startpoint the full queue evicted returns
	// with a larger key and must enter as new).

	f.Fuzz(func(t *testing.T, kByte uint8, data []byte) {
		const maxParents = 4
		k := 1 + int(kByte)%8
		var built [maxParents]*refQueue
		for p := range built {
			built[p] = newRefQueue(k)
		}
		for i := 0; i+1 < len(data); i += 2 {
			a := float64(data[i])
			s := float64(i) + 0.5
			built[data[i+1]>>6].insert(a, a-testNS*s, s, int32(data[i+1]&63)%10)
		}
		parents := newQueues(maxParents * k)
		for p, r := range built {
			copy(parents.mean[p*k:], r.mean)
			copy(parents.std[p*k:], r.std)
			copy(parents.sp[p*k:], r.sp)
		}

		q := newTestQueue(k)
		ref := newRefQueue(k)
		var fed []qEntry
		for p := 0; p < maxParents; p++ {
			am, as := float64(p), 0.0
			if kByte>>(3+p)&1 == 1 {
				as = 2
			}
			second := q.n > 0
			q.merge(&parents, p*k, am, as)
			ref.merge(&parents, p*k, am, as)
			if err := ref.diff(&q.queues, 0, 1, testNS); err != nil {
				t.Fatalf("parent %d diverged from the reference: %v\n got mean=%v std=%v sp=%v\nwant arr=%v mean=%v std=%v sp=%v",
					p, err, q.mean, q.std, q.sp, ref.arr, ref.mean, ref.std, ref.sp)
			}
			if second && !q.ix.loaded {
				t.Fatalf("parent %d merged into %d live entries without a loaded index", p, q.n)
			}
			if err := q.checkIndex(); err != nil {
				t.Fatalf("after parent %d: %v", p, err)
			}
			for kk := p * k; kk < (p+1)*k && parents.sp[kk] != noSP; kk++ {
				m := parents.mean[kk] + am
				sg := math.Sqrt(parents.std[kk]*parents.std[kk] + as*as)
				fed = append(fed, qEntry{arr: orderKey(m, sg, 1, testNS), sp: parents.sp[kk]})
			}
		}

		// Invariant: packed empties trailing, and the live count says where.
		n := k
		for i := 0; i < k; i++ {
			if q.sp[i] == noSP {
				n = i
				break
			}
		}
		if q.n != n {
			t.Fatalf("live count %d, first empty slot %d", q.n, n)
		}
		for i := n; i < k; i++ {
			if q.sp[i] != noSP {
				t.Fatalf("slot %d after first empty not cleared: sp=%d", i, q.sp[i])
			}
		}
		// Invariant: descending order, unique startpoints.
		seen := make(map[int32]bool, n)
		for i := 0; i < n; i++ {
			if i > 0 && q.key(i-1) < q.key(i) {
				t.Fatalf("ascending pair at %d: %v < %v", i-1, q.key(i-1), q.key(i))
			}
			if seen[q.sp[i]] {
				t.Fatalf("duplicate startpoint %d", q.sp[i])
			}
			seen[q.sp[i]] = true
		}
		// Oracle: arrivals must match brute force exactly. (At equal arrivals
		// the kept sp may differ from the oracle's tie-break, so only the
		// values are compared; the reference differential above pins the sps.)
		want := bruteTopK(fed, k)
		if len(want) != n {
			t.Fatalf("kept %d entries, oracle kept %d", n, len(want))
		}
		for i := 0; i < n; i++ {
			if q.key(i) != want[i].arr {
				t.Fatalf("slot %d: arr %v, oracle %v", i, q.key(i), want[i].arr)
			}
		}
	})
}
