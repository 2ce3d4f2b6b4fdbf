package refsta_test

import (
	"runtime"
	"testing"

	"insta/internal/bench"
	"insta/internal/refsta"
)

func generateBlock(t testing.TB, name string) *bench.Design {
	t.Helper()
	spec, err := bench.BlockSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestFullUpdateWorkerIndependence: a full update runs every level on a pool
// of GOMAXPROCS participants, each merging into its own arena. Which arena a
// list lands in depends on the schedule; no value may. block-5 has
// reconvergent fan-in, false-path and multicycle exceptions, and the run
// enables hold, so both merge directions and both slack kernels are covered —
// under ci.sh's -race step as well.
func TestFullUpdateWorkerIndependence(t *testing.T) {
	gen := generateBlock(t, "block-5")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want uint64
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		e, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.EnableHoldAnalysis()
		got := engineDigest(e)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS=%d: digest %#016x, GOMAXPROCS=1 gave %#016x", procs, got, want)
		}
	}
}

// TestNewAllocBudget holds one New to a number of allocations no per-pin or
// per-merge allocation can meet: the graph is CSR, the arrival lists come out
// of per-participant arenas, and what is left is a few hundred slabs, maps
// and chunks. A count, so it gates where a wall-clock could not.
func TestNewAllocBudget(t *testing.T) {
	gen := generateBlock(t, "block-5")
	pins := gen.D.NumPins()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(pins / 8); allocs >= budget {
		t.Errorf("refsta.New on block-5 (%d pins): %.0f allocations, budget < %.0f", pins, allocs, budget)
	}
}

// BenchmarkNew_Block1 is the by-hand number behind DESIGN.md's "refsta full
// update": wall time, bytes and objects of one New on block-1.
func BenchmarkNew_Block1(b *testing.B) {
	gen := generateBlock(b, "block-1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
