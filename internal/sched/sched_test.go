package sched

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// coverCheck runs fn over n indices through run and asserts every index is
// processed exactly once.
func coverCheck(t *testing.T, n int, run func(fn func(lo, hi int))) {
	t.Helper()
	marks := make([]int32, n)
	run(func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d processed %d times", i, m)
		}
	}
}

func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		for _, grain := range []int{1, 3, 64} {
			for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
				p := New(workers, grain)
				coverCheck(t, n, func(fn func(lo, hi int)) { p.Run(n, fn) })
				p.Close()
			}
		}
	}
}

func TestPoolReusedAcrossManyLaunches(t *testing.T) {
	p := New(4, 8)
	defer p.Close()
	var sum atomic.Int64
	const launches, n = 500, 300
	for l := 0; l < launches; l++ {
		p.Run(n, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
	}
	want := int64(launches) * int64(n*(n-1)/2)
	if got := sum.Load(); got != want {
		t.Fatalf("sum over launches = %d, want %d", got, want)
	}
}

func TestSmallLaunchRunsInlineOnCaller(t *testing.T) {
	p := New(4, 64)
	defer p.Close()
	s := NewStats()
	p.SetStats(s)
	done := false
	p.Run(64, func(lo, hi int) { // exactly one chunk: must not go parallel
		if lo != 0 || hi != 64 {
			t.Errorf("expected one inline chunk, got [%d, %d)", lo, hi)
		}
		done = true // safe only because the chunk runs on this goroutine
	})
	if !done {
		t.Fatal("kernel did not run")
	}
	prof := s.Snapshot()
	if len(prof) != 1 || prof[0].SerialLaunches != 1 || prof[0].Launches != 1 {
		t.Fatalf("expected one serial launch, got %+v", prof)
	}
}

func TestSingleWorkerPoolNeverSpawns(t *testing.T) {
	p := New(1, 4)
	defer p.Close()
	before := runtime.NumGoroutine()
	order := make([]int, 0, 4)
	p.Run(16, func(lo, hi int) { order = append(order, lo) }) // no race: caller-only
	if runtime.NumGoroutine() > before {
		t.Error("single-worker pool grew the goroutine count")
	}
	for i, lo := range order {
		if lo != i*4 {
			t.Fatalf("single-worker chunks out of order: %v", order)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New(0, 0)
	defer p.Close()
	if p.Workers() != runtime.NumCPU() {
		t.Errorf("Workers() = %d, want NumCPU %d", p.Workers(), runtime.NumCPU())
	}
	if p.Grain() != DefaultGrain {
		t.Errorf("Grain() = %d, want %d", p.Grain(), DefaultGrain)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(3, 8)
	p.Close()
	p.Close()
}

func TestStatsAggregation(t *testing.T) {
	p := New(4, 8)
	defer p.Close()
	s := NewStats()
	p.SetStats(s)
	for level := 0; level < 3; level++ {
		p.RunTagged("forward", level, 100, func(lo, hi int) {})
	}
	p.RunTagged("slack", -1, 4, func(lo, hi int) {})
	prof := s.Snapshot()
	if len(prof) != 2 {
		t.Fatalf("expected 2 kernels, got %d", len(prof))
	}
	fwd, slack := prof[0], prof[1]
	if fwd.Kernel != "forward" || slack.Kernel != "slack" {
		t.Fatalf("unexpected kernel order: %s, %s", fwd.Kernel, slack.Kernel)
	}
	if fwd.Launches != 3 || fwd.Spans != 300 {
		t.Errorf("forward launches/spans = %d/%d, want 3/300", fwd.Launches, fwd.Spans)
	}
	if len(fwd.Levels) != 3 {
		t.Errorf("forward level profiles = %d, want 3", len(fwd.Levels))
	}
	for i, lv := range fwd.Levels {
		if lv.Level != i || lv.Spans != 100 || lv.Launches != 1 {
			t.Errorf("level %d profile wrong: %+v", i, lv)
		}
	}
	// Launches only go parallel when the runtime can actually execute more
	// than one participant; on a single-CPU machine the pool runs every
	// launch inline, so the stats record serial launches instead.
	if min(4, runtime.GOMAXPROCS(0)) > 1 {
		if fwd.AvgImbalance < 1 {
			t.Errorf("parallel launches must report imbalance >= 1, got %v", fwd.AvgImbalance)
		}
	} else if fwd.SerialLaunches != 3 {
		t.Errorf("on GOMAXPROCS=1 all launches must be serial, got %d of 3", fwd.SerialLaunches)
	}
	if slack.SerialLaunches != 1 || slack.AvgImbalance != 0 || len(slack.Levels) != 0 {
		t.Errorf("slack profile wrong: %+v", slack)
	}

	s.Reset()
	if got := s.Snapshot(); len(got) != 0 {
		t.Errorf("snapshot after reset not empty: %+v", got)
	}
}

func TestRunIndexedCoversAllIndicesWithValidIDs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			p := New(workers, 16)
			marks := make([]int32, n)
			p.RunIndexed("", -1, n, func(id, lo, hi int) {
				if id < 0 || id >= workers {
					t.Errorf("participant id %d out of range [0, %d)", id, workers)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&marks[i], 1)
				}
			})
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("workers=%d n=%d: index %d processed %d times", workers, n, i, m)
				}
			}
			p.Close()
		}
	}
}

// TestRunIndexedIDsDisjointWhileRunning asserts the per-participant-scratch
// contract: no two concurrently running chunks share an id. Each chunk marks
// its id busy on entry and free on exit; an id found busy on entry is a
// contract violation.
func TestRunIndexedIDsDisjointWhileRunning(t *testing.T) {
	const workers = 4
	p := New(workers, 1)
	defer p.Close()
	var busy [workers]atomic.Bool
	for round := 0; round < 50; round++ {
		p.RunIndexed("", -1, 64, func(id, lo, hi int) {
			if !busy[id].CompareAndSwap(false, true) {
				t.Errorf("id %d claimed by two concurrent chunks", id)
			}
			busy[id].Store(false)
		})
	}
}

func TestAutoGrainScalesWithLaunchSize(t *testing.T) {
	p := New(2, 0) // auto mode
	defer p.Close()
	if p.Grain() != DefaultGrain {
		t.Fatalf("auto pool base grain = %d, want %d", p.Grain(), DefaultGrain)
	}
	ip := p.p
	if g := ip.launchGrain(100, 2); g != DefaultGrain {
		t.Errorf("small launch grain = %d, want floor %d", g, DefaultGrain)
	}
	if g := ip.launchGrain(8000, 2); g != 1000 {
		t.Errorf("mid launch grain = %d, want 1000", g)
	}
	if g := ip.launchGrain(1<<20, 2); g != maxAutoGrain {
		t.Errorf("huge launch grain = %d, want cap %d", g, maxAutoGrain)
	}
	fixed := New(2, 8)
	defer fixed.Close()
	if g := fixed.p.launchGrain(1<<20, 2); g != 8 {
		t.Errorf("fixed pool must not auto-tune: grain = %d, want 8", g)
	}
}

func TestSerialCutoffRunsInline(t *testing.T) {
	p := New(4, 0)
	defer p.Close()
	n := p.SerialCutoff()
	next := 0
	p.RunIndexed("", -1, n, func(id, lo, hi int) {
		if id != 0 {
			t.Errorf("cutoff-sized launch used helper id %d", id)
		}
		if lo != next {
			t.Errorf("chunks out of order: lo=%d want %d", lo, next)
		}
		next = hi
	})
	if next != n {
		t.Fatalf("covered %d of %d spans", next, n)
	}
}

func TestStatsDetachedCostsNothing(t *testing.T) {
	p := New(2, 8)
	defer p.Close()
	s := NewStats()
	p.SetStats(s)
	p.Run(100, func(lo, hi int) {})
	p.SetStats(nil)
	p.Run(100, func(lo, hi int) {})
	prof := s.Snapshot()
	if len(prof) != 1 || prof[0].Launches != 1 {
		t.Fatalf("detached pool still recorded: %+v", prof)
	}
}

func TestWriteTable(t *testing.T) {
	p := New(4, 8)
	defer p.Close()
	s := NewStats()
	p.SetStats(s)
	p.RunTagged("forward", 0, 200, func(lo, hi int) {})
	var sb strings.Builder
	WriteTable(&sb, s.Snapshot(), 3)
	out := sb.String()
	if !strings.Contains(out, "forward") || !strings.Contains(out, "level") {
		t.Errorf("table missing expected rows:\n%s", out)
	}
}

// TestWorkStealingSurvivesSkew pins most of the cost on the first chunks; the
// claiming loop must still cover everything (a fixed even split would leave
// the caller idle while one worker drags).
func TestWorkStealingSurvivesSkew(t *testing.T) {
	p := New(4, 1)
	defer p.Close()
	var total atomic.Int64
	p.Run(64, func(lo, hi int) {
		if lo < 4 {
			// Simulate a heavy pin: spin a little.
			x := 0
			for i := 0; i < 50000; i++ {
				x += i
			}
			_ = x
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != 64 {
		t.Fatalf("processed %d of 64 indices", total.Load())
	}
}
