package levelize

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestChain(t *testing.T) {
	r, err := Levelize(4, []Arc{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3}
	for i, l := range want {
		if r.Level[i] != l {
			t.Errorf("level[%d] = %d, want %d", i, r.Level[i], l)
		}
	}
	if r.NumLevels != 4 {
		t.Errorf("NumLevels = %d, want 4", r.NumLevels)
	}
	for l := 0; l < 4; l++ {
		nodes := r.Nodes(l)
		if len(nodes) != 1 || nodes[0] != int32(l) {
			t.Errorf("Nodes(%d) = %v", l, nodes)
		}
	}
}

func TestDiamondLongestPath(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 3: node 3 must be level 2 (longest path), not 1.
	r, err := Levelize(4, []Arc{{0, 1}, {1, 3}, {0, 3}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Level[3] != 2 {
		t.Errorf("level[3] = %d, want 2", r.Level[3])
	}
	if r.Level[2] != 1 {
		t.Errorf("level[2] = %d, want 1", r.Level[2])
	}
}

func TestIsolatedNodes(t *testing.T) {
	r, err := Levelize(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumLevels != 1 || len(r.Nodes(0)) != 3 {
		t.Errorf("isolated nodes: NumLevels=%d Nodes(0)=%v", r.NumLevels, r.Nodes(0))
	}
}

func TestEmptyGraph(t *testing.T) {
	r, err := Levelize(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumLevels != 0 || len(r.Order) != 0 {
		t.Errorf("empty graph: %+v", r)
	}
}

func TestCycleDetected(t *testing.T) {
	_, err := Levelize(3, []Arc{{0, 1}, {1, 2}, {2, 1}})
	if err == nil {
		t.Fatal("cycle not detected")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention cycle", err)
	}
	// The reported cycle should contain the actual cyclic nodes 1 and 2.
	if !strings.Contains(err.Error(), "1") || !strings.Contains(err.Error(), "2") {
		t.Errorf("cycle message %q does not name cycle nodes", err)
	}
}

func TestSelfLoopRejected(t *testing.T) {
	if _, err := Levelize(2, []Arc{{1, 1}}); err == nil {
		t.Error("self-loop not rejected")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	if _, err := Levelize(2, []Arc{{0, 5}}); err == nil {
		t.Error("out-of-range arc not rejected")
	}
	if _, err := Levelize(2, []Arc{{-1, 0}}); err == nil {
		t.Error("negative arc not rejected")
	}
}

func TestOrderRespectsLevelsProperty(t *testing.T) {
	// Property: for random DAGs (arcs only from lower id to higher id),
	// every arc satisfies Level[from] < Level[to], Order is a permutation,
	// and LevelStart partitions Order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		var arcs []Arc
		for i := 0; i < n*2; i++ {
			a := int32(rng.Intn(n - 1))
			b := a + 1 + int32(rng.Intn(n-int(a)-1))
			arcs = append(arcs, Arc{a, b})
		}
		r, err := Levelize(n, arcs)
		if err != nil {
			return false
		}
		for _, a := range arcs {
			if r.Level[a.From] >= r.Level[a.To] {
				return false
			}
		}
		seen := make([]bool, n)
		for _, v := range r.Order {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		for l := 0; l < r.NumLevels; l++ {
			for _, v := range r.Nodes(l) {
				if r.Level[v] != int32(l) {
					return false
				}
			}
		}
		return int(r.LevelStart[r.NumLevels]) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicOrderWithinLevel(t *testing.T) {
	arcs := []Arc{{2, 5}, {0, 5}, {1, 4}, {3, 4}}
	a, err := Levelize(6, arcs)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Levelize(6, arcs)
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatal("non-deterministic order")
		}
	}
	// Within level 0, ids ascend.
	l0 := a.Nodes(0)
	for i := 1; i < len(l0); i++ {
		if l0[i] <= l0[i-1] {
			t.Fatalf("level 0 not ascending: %v", l0)
		}
	}
}

// incrementalArcs runs Incremental over the fan-out and fan-in CSRs of an arc
// list (the fan-in CSR is the fan-out CSR of the reversed arcs).
func incrementalArcs(n int, arcs []Arc, prev *Result, seeds []int32) (*Result, IncStats, error) {
	rev := make([]Arc, len(arcs))
	for i, a := range arcs {
		rev[i] = Arc{a.To, a.From}
	}
	fo, err := buildCSR(n, arcs)
	if err != nil {
		return nil, IncStats{}, err
	}
	fi, err := buildCSR(n, rev)
	if err != nil {
		return nil, IncStats{}, err
	}
	return Incremental(n, fo.outStart, fo.outAdj, fi.outStart, fi.outAdj, prev, seeds)
}

// incrementalMatchesFull applies an edit and checks Incremental against a
// full Levelize of the edited graph, element for element.
func incrementalMatchesFull(t *testing.T, n int, arcs []Arc, prev *Result, newN int, newArcs []Arc, seeds []int32) IncStats {
	t.Helper()
	inc, st, err := incrementalArcs(newN, newArcs, prev, seeds)
	if err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	full, err := Levelize(newN, newArcs)
	if err != nil {
		t.Fatalf("Levelize(edited): %v", err)
	}
	if !reflect.DeepEqual(inc, full) {
		t.Fatalf("incremental != full:\ninc  %+v\nfull %+v", inc, full)
	}
	return st
}

func TestIncrementalSpliceMatchesFull(t *testing.T) {
	// Chain 0->1->2->3 with a buffer (nodes 4,5) spliced into arc 1->2:
	// 1->4->5->2. Seeds: the appended nodes and the rewired sink.
	arcs := []Arc{{0, 1}, {1, 2}, {2, 3}}
	prev, err := Levelize(4, arcs)
	if err != nil {
		t.Fatal(err)
	}
	edited := []Arc{{0, 1}, {1, 4}, {4, 5}, {5, 2}, {2, 3}}
	st := incrementalMatchesFull(t, 4, arcs, prev, 6, edited, []int32{4, 5, 2})
	if st.Region != 4 { // 4, 5, 2, 3
		t.Errorf("region = %d, want 4", st.Region)
	}
	if st.TotalLevels != 6 {
		t.Errorf("total levels = %d, want 6", st.TotalLevels)
	}
}

func TestIncrementalUpstreamUntouchedRegion(t *testing.T) {
	// Wide graph: 0->{1..8}->9->10; splice into 9->10. Nodes 0..8 must stay
	// outside the region.
	var arcs []Arc
	for i := int32(1); i <= 8; i++ {
		arcs = append(arcs, Arc{0, i}, Arc{i, 9})
	}
	arcs = append(arcs, Arc{9, 10})
	prev, err := Levelize(11, arcs)
	if err != nil {
		t.Fatal(err)
	}
	edited := append(append([]Arc(nil), arcs[:len(arcs)-1]...), Arc{9, 11}, Arc{11, 12}, Arc{12, 10})
	st := incrementalMatchesFull(t, 11, arcs, prev, 13, edited, []int32{11, 12, 10})
	if st.Region != 3 {
		t.Errorf("region = %d, want 3 (upstream nodes re-leveled)", st.Region)
	}
}

func TestIncrementalRemovalMatchesFull(t *testing.T) {
	// Remove the buffer 1->4->5->2 again: node count stays (nodes are
	// append-only; 4 and 5 go floating), arc 1->2 is restored.
	arcs := []Arc{{0, 1}, {1, 4}, {4, 5}, {5, 2}, {2, 3}}
	prev, err := Levelize(6, arcs)
	if err != nil {
		t.Fatal(err)
	}
	edited := []Arc{{0, 1}, {1, 2}, {2, 3}}
	st := incrementalMatchesFull(t, 6, arcs, prev, 6, edited, []int32{2, 4, 5})
	if st.Region < 4 { // 2, 3, 4, 5
		t.Errorf("region = %d, want >= 4", st.Region)
	}
}

func TestIncrementalRandomEditsMatchFull(t *testing.T) {
	// Random layered DAGs with random arc retargets + node appends: the
	// incremental result must always deep-equal the full one.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(40)
		var arcs []Arc
		for i := 0; i < n*2; i++ {
			a := int32(rng.Intn(n - 1))
			b := a + 1 + int32(rng.Intn(n-int(a)-1))
			arcs = append(arcs, Arc{a, b})
		}
		prev, err := Levelize(n, arcs)
		if err != nil {
			t.Fatal(err)
		}
		// Edit: retarget a random arc through two appended nodes (splice),
		// or rewire a random arc's head to another downstream node.
		edited := append([]Arc(nil), arcs...)
		var seeds []int32
		newN := n
		if rng.Intn(2) == 0 && len(edited) > 0 {
			i := rng.Intn(len(edited))
			from, to := edited[i].From, edited[i].To
			x, y := int32(newN), int32(newN+1)
			newN += 2
			edited[i] = Arc{from, x}
			edited = append(edited, Arc{x, y}, Arc{y, to})
			seeds = []int32{x, y, to}
		} else {
			i := rng.Intn(len(edited))
			to := edited[i].To
			// Retarget tail to a random earlier node (keeps acyclicity).
			nf := int32(rng.Intn(int(to)))
			edited[i] = Arc{nf, to}
			seeds = []int32{to}
		}
		incrementalMatchesFull(t, n, arcs, prev, newN, edited, seeds)
	}
}

func TestIncrementalCycleRejected(t *testing.T) {
	arcs := []Arc{{0, 1}, {1, 2}}
	prev, err := Levelize(3, arcs)
	if err != nil {
		t.Fatal(err)
	}
	// Rewire 0->1 into 2->1: creates 1->2->1.
	if _, _, err := incrementalArcs(3, []Arc{{2, 1}, {1, 2}}, prev, []int32{1}); err == nil {
		t.Fatal("cycle not detected")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention cycle", err)
	}
}

func TestIncrementalValidation(t *testing.T) {
	prev, err := Levelize(3, []Arc{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := incrementalArcs(2, nil, prev, nil); err == nil {
		t.Error("shrinking node count not rejected")
	}
	if _, _, err := incrementalArcs(3, nil, prev, []int32{7}); err == nil {
		t.Error("out-of-range seed not rejected")
	}
	if _, _, err := incrementalArcs(4, []Arc{{0, 3}}, prev, nil); err == nil {
		t.Error("unseeded appended node not rejected")
	}
	if _, _, err := incrementalArcs(3, nil, nil, nil); err == nil {
		t.Error("nil prev not rejected")
	}
}

func TestIncrementalNoSeedsIsIdentity(t *testing.T) {
	arcs := []Arc{{0, 1}, {1, 2}}
	prev, err := Levelize(3, arcs)
	if err != nil {
		t.Fatal(err)
	}
	inc, st, err := incrementalArcs(3, arcs, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc, prev) {
		t.Fatalf("no-op edit changed the schedule: %+v vs %+v", inc, prev)
	}
	if st.Region != 0 || st.LevelsSpan != 0 {
		t.Errorf("no-op stats %+v", st)
	}
}
