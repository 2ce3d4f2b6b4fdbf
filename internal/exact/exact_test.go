package exact

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
	"insta/internal/refsta"
	"insta/internal/topo"
)

// build generates block preset name and returns its reference engine and
// extraction tables.
func build(t testing.TB, name string) (*refsta.Engine, *circuitops.Tables) {
	t.Helper()
	spec, err := bench.BlockSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(g.D, g.Lib, g.Con, g.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ref, circuitops.Extract(ref)
}

// audited returns the endpoints a check walks: the n worst by slack, then n
// more drawn at random with seed, each once.
func audited(slacks []float64, n int, seed int64) []int32 {
	order := make([]int32, len(slacks))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(slacks[a], slacks[b]) })
	eps := slices.Clone(order[:min(n, len(order))])
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(slacks)) {
		if len(eps) == 2*n || len(eps) == len(slacks) {
			break
		}
		if !slices.Contains(eps, int32(i)) {
			eps = append(eps, int32(i))
		}
	}
	return eps
}

// near reports whether a and b agree within tol, infinities exactly.
func near(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// TestAgainstRefsta: on every unedited block preset the walker's setup and
// hold slacks equal the reference engine's exact per-startpoint ones, for the
// 64 worst endpoints and 64 more at random.
func TestAgainstRefsta(t *testing.T) {
	// refsta's unbounded lists, late and early, are most of a gigabyte on
	// block-1: collect early rather than let the heap double past them.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	presets := bench.BlockNames()
	if testing.Short() {
		presets = []string{"block-5"}
	}
	for _, name := range presets {
		t.Run(name, func(t *testing.T) {
			ref, tab := build(t, name)
			st, err := core.Compile(tab)
			if err != nil {
				t.Fatal(err)
			}
			w, err := New(st)
			if err != nil {
				t.Fatal(err)
			}
			delay := func(arc int32, rf int) num.Dist {
				return num.Dist{Mean: st.ArcMean[rf][arc], Std: st.ArcStd[rf][arc]}
			}
			ref.EnableHoldAnalysis()
			setup, hold := ref.EndpointSlacks(), ref.HoldSlacks()
			ref = nil // the walk needs only the tables
			timed, eps := 0, audited(setup, 64, 1)
			res, entries := w.Walk(delay, eps...)
			if entries < len(eps) {
				t.Fatalf("the walk built %d arrivals for %d endpoints", entries, len(eps))
			}
			for i, ep := range eps {
				r := res[i]
				if !near(r.Setup, setup[ep], 1e-9) || !near(r.Hold, hold[ep], 1e-9) {
					t.Fatalf("endpoint %d: setup %v hold %v, refsta %v, %v", ep, r.Setup, r.Hold, setup[ep], hold[ep])
				}
				if !math.IsInf(r.Setup, 0) {
					timed++
				}
			}
			if timed == 0 {
				t.Fatal("no audited endpoint is timed — the check is vacuous")
			}
		})
	}
}

// TestEditScriptMatchesEngine: on block-2 at K = 128, where every queue holds
// every startpoint that reaches it, a seeded 200-step script of buffer
// insertions, bypasses and re-annotations runs through topo.Edit,
// at Workers 1 and 4. After every step each endpoint whose slack moved (up to
// 16) and the 8 worst equal the engine's bit for bit: setup and hold slack and
// the critical startpoint and transition.
func TestEditScriptMatchesEngine(t *testing.T) {
	_, tab := build(t, "block-2")
	var finals [][]float64
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) {
			base, err := core.NewEngine(tab, core.Options{TopK: 128, Hold: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			base.Run()
			base.RefreshHoldSlacks()
			work := base.Fork()
			defer work.Close()
			rng := rand.New(rand.NewSource(36))
			var bufs []int32 // cell arcs of the buffers the script inserted and has not removed
			prev := slices.Clone(base.Slacks())
			counts := map[string]int{}
			for step := 0; step < 200; step++ {
				st := work.ExportState()
				var op topo.Op
				kind := "annotate"
				switch r := rng.Intn(4); {
				case r < 2:
					kind = "insert"
					arc := int32(rng.Intn(len(st.ArcFrom)))
					for st.ArcKind[arc] != 1 {
						arc = int32(rng.Intn(len(st.ArcFrom)))
					}
					op = topo.InsertBuffer(arc, -1, [2]num.Dist{{Mean: 2 + 3*rng.Float64(), Std: 0.2}, {Mean: 2.5 + 3*rng.Float64(), Std: 0.25}}, []float64{0, 0.3, 0.75}[rng.Intn(3)])
				case r == 2 && len(bufs) > 0:
					kind = "remove"
					op = topo.RemoveBuffer(bufs[rng.Intn(len(bufs))])
				default:
					arc := int32(rng.Intn(len(st.ArcFrom)))
					f := 0.8 + 0.5*rng.Float64()
					a := st.Arc(arc)
					op = topo.Annotate(arc, [2]num.Dist{{Mean: a.MeanRise * f, Std: a.StdRise * f}, {Mean: a.MeanFall * f, Std: a.StdFall * f}})
				}
				if _, err := topo.Edit(work, []topo.Op{op}); err != nil {
					counts["rejected"]++
					continue
				}
				counts[kind]++
				switch kind {
				case "insert":
					bufs = append(bufs, int32(len(st.ArcFrom)))
				case "remove":
					bufs = slices.DeleteFunc(bufs, func(a int32) bool { return a == op.Arc })
				}
				e := work
				slacks, holds := e.Slacks(), e.LaneHoldSlacks(0)
				var eps []int32
				for i := range slacks {
					if len(eps) < 16 && math.Float64bits(slacks[i]) != math.Float64bits(prev[i]) {
						eps = append(eps, int32(i))
					}
				}
				for _, ep := range audited(slacks, 8, 0)[:8] {
					if !slices.Contains(eps, ep) {
						eps = append(eps, ep)
					}
				}
				w, err := New(e.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				res, _ := w.Walk(e.ArcDelay, eps...)
				for i, ep := range eps {
					r := res[i]
					sp, rf := e.LaneCriticalStartpoint(0, int(ep))
					if math.Float64bits(r.Setup) != math.Float64bits(slacks[ep]) || r.SP != sp || r.RF != rf ||
						math.Float64bits(r.Hold) != math.Float64bits(holds[ep]) {
						t.Fatalf("step %d (%s): endpoint %d: setup %v by (%d, %d), hold %v; the engine's %v by (%d, %d), %v",
							step, kind, ep, r.Setup, r.SP, r.RF, r.Hold, slacks[ep], sp, rf, holds[ep])
					}
				}
				prev = slices.Clone(slacks)
			}
			if counts["insert"] == 0 || counts["remove"] == 0 || counts["annotate"] == 0 {
				t.Fatalf("the script ran %v — a kind of edit is missing", counts)
			}
			t.Logf("ops applied: %v", counts)
			finals = append(finals, prev)
		})
	}
	if len(finals) == 2 && !slices.Equal(finals[0], finals[1]) {
		t.Fatal("the script's final slacks depend on the worker count")
	}
}

// TestTruncationOnlyRaisesSlack: at K = 1 on block-1 a queue keeps one
// startpoint where several reach a pin, so the engine can drop the arrival
// that sets an endpoint's slack — Fig. 6's disagreeing endpoints. At every
// endpoint where the K = 1 and K = 32 engines disagree (up to 128), and at
// the 32 worst, the exact setup slack equals K = 32's bit for bit; where they
// disagree it is strictly below K = 1's, and at no sampled endpoint is it
// above K = 1's: truncation can only raise a slack.
func TestTruncationOnlyRaisesSlack(t *testing.T) {
	_, tab := build(t, "block-1")
	slacks := map[int][]float64{}
	for _, k := range []int{1, 32} {
		e, err := core.NewEngine(tab, core.Options{TopK: k, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		slacks[k] = slices.Clone(e.Slacks())
		e.Close()
	}
	k1, k32 := slacks[1], slacks[32]
	var eps []int32
	for i := range k32 {
		if len(eps) < 128 && math.Float64bits(k1[i]) != math.Float64bits(k32[i]) {
			eps = append(eps, int32(i))
		}
	}
	disagree := len(eps)
	if disagree == 0 {
		t.Fatal("K = 1 and K = 32 agree everywhere — the check is vacuous")
	}
	for _, ep := range audited(k32, 32, 0)[:32] {
		if !slices.Contains(eps, ep) {
			eps = append(eps, ep)
		}
	}
	st, err := core.Compile(tab)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Walk(func(arc int32, rf int) num.Dist {
		return num.Dist{Mean: st.ArcMean[rf][arc], Std: st.ArcStd[rf][arc]}
	}, eps...)
	for i, ep := range eps {
		got := res[i].Setup
		if math.Float64bits(got) != math.Float64bits(k32[ep]) {
			t.Fatalf("endpoint %d: exact setup slack %v, K = 32 %v", ep, got, k32[ep])
		}
		if got > k1[ep] || i < disagree && got == k1[ep] {
			t.Fatalf("endpoint %d: exact setup slack %v, K = 1 %v — truncation lowered a slack", ep, got, k1[ep])
		}
	}
	t.Logf("%d endpoints where K = 1 and K = 32 disagree, %d walked", disagree, len(eps))
}
