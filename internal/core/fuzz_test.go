package core

import "testing"

// FuzzInsertTopK drives the kernels' fill-tracked insert and the Algorithm-2
// reference (refInsertTopK) with the same byte-decoded stream and requires,
// after every insert, the kernels' three planes to hold the reference's bits
// — startpoint tie-breaks included — every live slot's derived key to be the
// reference's stored arr, and the new insert's live count to be the
// reference's packed length. On top of that differential it checks every
// invariant the propagation kernels rely on against the brute-force oracle:
//
//   - the kept arrivals equal "max per startpoint, then K largest";
//   - entries are in descending arrival order;
//   - startpoints are unique;
//   - empty slots are packed at the tail (noSP marker).
//
// Bytes decode two per insert: arrival = b0 (a coarse grid that makes
// duplicate keys and displacement ties common), sp = b1 % 10. Sigma carries
// the insert's ordinal so a swapped or stale payload plane shows, and the mean
// is what puts the entry's key on b0 (all three are small multiples of 1/2, so
// the key is exact).
func FuzzInsertTopK(f *testing.F) {
	// Algorithm-2 edge cases as seeds.
	// Duplicate SP update: same startpoint arrives twice, larger second.
	f.Add(uint8(3), []byte{10, 1, 20, 1})
	// Duplicate SP with a smaller second arrival (must be ignored).
	f.Add(uint8(3), []byte{20, 1, 10, 1})
	// Displacement at k-1: full queue, new sp lands exactly above the min.
	f.Add(uint8(2), []byte{30, 1, 10, 2, 20, 3})
	// Bubble-up: in-place update that must rise past two entries.
	f.Add(uint8(3), []byte{30, 1, 20, 2, 10, 3, 40, 3})
	// Saturating duplicates across a tiny queue.
	f.Add(uint8(1), []byte{5, 0, 9, 1, 7, 0, 9, 2, 1, 1})
	// testdata/fuzz/FuzzInsertTopK holds the fill-tracking cases: partial_fill
	// (3 of 8 slots: every shift starts at the live count), fill_to_full (the
	// n = K-1 -> K transition, then a displacement and a reject when full) and
	// update_bubbles_to_front (an in-place update of the last live entry that
	// rises to slot 0 past a tie).

	f.Fuzz(func(t *testing.T, kByte uint8, data []byte) {
		k := 1 + int(kByte)%8
		q := newTestQueue(k)
		ref := newRefQueue(k)

		var fed []qEntry
		for i := 0; i+1 < len(data); i += 2 {
			a := float64(data[i])
			sp := int32(data[i+1] % 10)
			s := float64(i) + 0.5
			m := a - testNS*s
			fed = append(fed, qEntry{arr: a, sp: sp})
			q.insert(m, s, sp)
			ref.insert(a, m, s, sp)
			if err := ref.diff(&q.queues, 0, 1, testNS); err != nil {
				t.Fatalf("insert %d (arr %v sp %d) diverged from the reference: %v\n got mean=%v std=%v sp=%v\nwant arr=%v mean=%v std=%v sp=%v",
					i/2, a, sp, err, q.mean, q.std, q.sp, ref.arr, ref.mean, ref.std, ref.sp)
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
