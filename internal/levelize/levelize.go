// Package levelize assigns timing levels to the pins of a timing graph by
// topological (Kahn) sorting, the role Graph-Tool plays in the paper's
// initialization (§III-A). Pins within a level have no arcs between them, so
// a level can be processed by one parallel kernel launch.
//
// A node's level is the length of the longest arc path reaching it — a
// property with a unique solution on a DAG — and the launch Order is a
// counting sort by (level, id). Both are therefore canonical: any procedure
// that computes longest-path levels yields bit-identical Results, which is
// what lets Incremental re-levelize only the region downstream of a
// structural edit and still reproduce Levelize exactly (the topo subsystem's
// differential tests assert this).
package levelize

import (
	"fmt"
	"strings"
)

// Arc is a directed timing dependency From → To between node ids.
type Arc struct {
	From, To int32
}

// Result is the level schedule of a graph.
type Result struct {
	Level      []int32 // level of each node; sources are level 0
	NumLevels  int
	Order      []int32 // nodes sorted by (level, id): the kernel launch order
	LevelStart []int32 // len NumLevels+1; Order[LevelStart[l]:LevelStart[l+1]] is level l
}

// Nodes returns the node ids of level l.
func (r *Result) Nodes(l int) []int32 {
	return r.Order[r.LevelStart[l]:r.LevelStart[l+1]]
}

// IncStats reports what an Incremental call actually re-leveled.
type IncStats struct {
	Region      int // nodes whose level was recomputed (forward closure of the seeds)
	MinLevel    int // lowest new level in the region (0 when the region is empty)
	MaxLevel    int // highest new level in the region
	LevelsSpan  int // MaxLevel-MinLevel+1, the re-levelized window (0 when empty)
	TotalLevels int // NumLevels of the resulting schedule
}

// csr is the validated fanout adjacency of a graph.
type csr struct {
	indeg    []int32
	outStart []int32
	outAdj   []int32
}

// buildCSR validates the arcs and builds fanout adjacency plus in-degrees.
func buildCSR(n int, arcs []Arc) (*csr, error) {
	indeg := make([]int32, n)
	outCount := make([]int32, n)
	for _, a := range arcs {
		if a.From < 0 || int(a.From) >= n || a.To < 0 || int(a.To) >= n {
			return nil, fmt.Errorf("levelize: arc %d->%d out of range [0,%d)", a.From, a.To, n)
		}
		if a.From == a.To {
			return nil, fmt.Errorf("levelize: self-loop on node %d", a.From)
		}
		outCount[a.From]++
		indeg[a.To]++
	}
	outStart := make([]int32, n+1)
	for i := 0; i < n; i++ {
		outStart[i+1] = outStart[i] + outCount[i]
	}
	outAdj := make([]int32, len(arcs))
	fill := outCount
	for i := range fill {
		fill[i] = 0
	}
	for _, a := range arcs {
		outAdj[outStart[a.From]+fill[a.From]] = a.To
		fill[a.From]++
	}
	return &csr{indeg: indeg, outStart: outStart, outAdj: outAdj}, nil
}

// schedule builds the canonical (level, id) launch order from final levels.
func schedule(level []int32) *Result {
	n := len(level)
	numLevels := 0
	for _, l := range level {
		if int(l)+1 > numLevels {
			numLevels = int(l) + 1
		}
	}
	if n == 0 {
		numLevels = 0
	}
	counts := make([]int32, numLevels+1)
	for _, l := range level {
		counts[l]++
	}
	starts := make([]int32, numLevels+1)
	for i := 0; i < numLevels; i++ {
		starts[i+1] = starts[i] + counts[i]
	}
	ordered := make([]int32, n)
	cursor := append([]int32(nil), starts[:numLevels]...)
	for i := int32(0); int(i) < n; i++ {
		l := level[i]
		ordered[cursor[l]] = i
		cursor[l]++
	}
	return &Result{
		Level:      level,
		NumLevels:  numLevels,
		Order:      ordered,
		LevelStart: starts,
	}
}

// Levelize computes the level schedule of a graph with n nodes. A node's
// level is the length of the longest arc path reaching it; nodes with no
// fan-in are level 0. It returns an error naming a sample cycle if the graph
// is not a DAG, or if an arc references an out-of-range node.
func Levelize(n int, arcs []Arc) (*Result, error) {
	g, err := buildCSR(n, arcs)
	if err != nil {
		return nil, err
	}
	level := make([]int32, n)
	frontier := make([]int32, 0, n)
	for i := int32(0); int(i) < n; i++ {
		if g.indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	if relax(frontier, nil, g.outStart, g.outAdj, g.indeg, level) != n {
		return nil, fmt.Errorf("levelize: graph has a cycle: %s", sampleCycle(n, g.indeg, g.outStart, g.outAdj))
	}
	return schedule(level), nil
}

// relax is the Kahn relaxation both passes run: from frontier, the region's
// nodes with no unprocessed in-region parent, it walks the fan-out CSR level
// by level, raising each region node's level past its parent's and releasing
// it when indeg, its count of unprocessed in-region parents, reaches zero.
// The region is every node when inR is nil; level holds each region node's
// floor on entry (0, or what its out-of-region parents give it) and its
// longest-path level on return. It returns how many region nodes it
// processed: fewer than the region holds means a cycle.
func relax(frontier []int32, inR []bool, outStart, outAdj, indeg, level []int32) int {
	processed := len(frontier)
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range outAdj[outStart[u]:outStart[u+1]] {
				if inR != nil && !inR[v] {
					continue
				}
				indeg[v]--
				if lv := level[u] + 1; lv > level[v] {
					level[v] = lv
				}
				if indeg[v] == 0 {
					next = append(next, v)
				}
			}
		}
		frontier = next
		processed += len(next)
	}
	return processed
}

// Incremental re-levelizes a graph after a structural edit, recomputing
// levels only inside the forward closure of the seed nodes — the nodes whose
// fan-in set changed. Everything upstream of (and disjoint from) that region
// keeps its level from prev untouched, which is what makes the result
// bit-identical to a full Levelize of the edited graph:
//
//   - Any node with a parent in the region is itself in the region (forward
//     closure), so a node outside the region has only out-of-region parents,
//     whose levels are unchanged by induction — its longest incoming path,
//     and hence its level, is unchanged.
//   - Inside the region the Kahn relaxation Levelize runs (relax), restricted
//     to the region, computes exactly the longest-path level, with
//     out-of-region parents contributing fixed floor levels: the same unique
//     solution the full pass finds.
//   - The launch order is rebuilt by the same counting sort (schedule), so
//     Order/LevelStart match entry for entry.
//
// The *edited* graph arrives as the adjacency a compiled state already holds:
// foStart/foAdj is the fan-out CSR (slots of node p list its successors),
// faninStart/faninFrom the fan-in CSR (slots of node p list its
// predecessors). Both must describe the same graph with n nodes — they are
// trusted, not validated (the tables behind a compiled State have passed
// Validate). Reading floors off the region's fan-in and the closure off its
// fan-out makes the work scale with the re-leveled region, not the design.
//
// n must be >= len(prev.Level) (nodes are only ever appended — removed
// instances become floating level-0 nodes). Every node whose fan-in changed,
// including appended nodes, must be listed in seeds. A cycle introduced by
// the edit necessarily lies inside the region and is reported as an error,
// leaving no partial result.
func Incremental(n int, foStart, foAdj, faninStart, faninFrom []int32, prev *Result, seeds []int32) (*Result, IncStats, error) {
	var st IncStats
	if prev == nil {
		return nil, st, fmt.Errorf("levelize: incremental requires a previous result")
	}
	if n < len(prev.Level) {
		return nil, st, fmt.Errorf("levelize: node count shrank %d -> %d (nodes are append-only)", len(prev.Level), n)
	}
	if len(foStart) != n+1 || len(faninStart) != n+1 {
		return nil, st, fmt.Errorf("levelize: CSR starts sized %d/%d, want %d", len(foStart), len(faninStart), n+1)
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			return nil, st, fmt.Errorf("levelize: seed %d out of range [0,%d)", s, n)
		}
	}
	seeded := make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		seeded[s] = true
	}
	for i := len(prev.Level); i < n; i++ {
		if !seeded[int32(i)] {
			return nil, st, fmt.Errorf("levelize: appended node %d not in seeds", i)
		}
	}

	// Region R: forward closure of the seeds over the edited fanout CSR.
	inR := make([]bool, n)
	region := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if !inR[s] {
			inR[s] = true
			region = append(region, s)
		}
	}
	for i := 0; i < len(region); i++ {
		u := region[i]
		for _, v := range foAdj[foStart[u]:foStart[u+1]] {
			if !inR[v] {
				inR[v] = true
				region = append(region, v)
			}
		}
	}

	level := make([]int32, n)
	copy(level, prev.Level)
	indegR := make([]int32, n)
	for _, u := range region {
		level[u] = 0
		for _, v := range foAdj[foStart[u]:foStart[u+1]] {
			if inR[v] {
				indegR[v]++
			}
		}
	}
	// Floor levels from out-of-region parents: an arc contributes one exactly
	// when its head is in the region and its tail is not.
	for _, v := range region {
		for _, u := range faninFrom[faninStart[v]:faninStart[v+1]] {
			if !inR[u] {
				if lv := level[u] + 1; lv > level[v] {
					level[v] = lv
				}
			}
		}
	}

	// Restricted Kahn over the region.
	frontier := make([]int32, 0, len(region))
	for _, u := range region {
		if indegR[u] == 0 {
			frontier = append(frontier, u)
		}
	}
	if relax(frontier, inR, foStart, foAdj, indegR, level) != len(region) {
		return nil, st, fmt.Errorf("levelize: edit introduced a cycle: %s", sampleCycle(n, indegR, foStart, foAdj))
	}

	res := schedule(level)
	st.Region = len(region)
	st.TotalLevels = res.NumLevels
	if len(region) > 0 {
		st.MinLevel = int(level[region[0]])
		st.MaxLevel = st.MinLevel
		for _, u := range region {
			if l := int(level[u]); l < st.MinLevel {
				st.MinLevel = l
			} else if l > st.MaxLevel {
				st.MaxLevel = l
			}
		}
		st.LevelsSpan = st.MaxLevel - st.MinLevel + 1
	}
	return res, st, nil
}

// sampleCycle walks the unprocessed subgraph to print one cycle for
// diagnostics.
func sampleCycle(n int, indeg []int32, outStart, outAdj []int32) string {
	inCycleRegion := make([]bool, n)
	var start int32 = -1
	for i := 0; i < n; i++ {
		if indeg[i] > 0 {
			inCycleRegion[i] = true
			if start < 0 {
				start = int32(i)
			}
		}
	}
	if start < 0 {
		return "(unlocatable)"
	}
	// Follow successors inside the cyclic region until a repeat.
	seenAt := make(map[int32]int)
	var path []int32
	u := start
	for {
		if at, ok := seenAt[u]; ok {
			var b strings.Builder
			for _, v := range path[at:] {
				fmt.Fprintf(&b, "%d -> ", v)
			}
			fmt.Fprintf(&b, "%d", u)
			return b.String()
		}
		seenAt[u] = len(path)
		path = append(path, u)
		advanced := false
		for _, v := range outAdj[outStart[u]:outStart[u+1]] {
			if inCycleRegion[v] {
				u = v
				advanced = true
				break
			}
		}
		if !advanced {
			return "(unlocatable)"
		}
	}
}
