package core

import (
	"math"
	"runtime"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/refsta"
)

// The scheduler contract (ISSUE: "propagation results must remain
// bit-identical for any worker count") is proven here: every buffer the
// engine computes — Top-K queues, endpoint slacks, arrival and arc gradients,
// hold state — must come out bit-for-bit equal for Workers ∈ {1, 2, 7,
// NumCPU} on several bench presets. A tiny grain forces many chunks per
// launch so the claiming interleavings actually differ between runs.

// engineState is a bitwise snapshot of everything a full evaluation writes.
type engineState struct {
	topArr, topMean, topStd []float64
	topSP                   []int32
	epSlack                 []float64
	epSP                    []int32
	gradArr                 [2][]float64
	gradMean                [2][]float64
	gradStd                 [2][]float64
	holdNegArr              []float64
	holdSlack               []float64
}

// derivedKeys returns every slot's ordering key under sign as the kernels
// derive it (orderKey), -Inf for empty slots.
func derivedKeys(e *Engine, q *queues, sign float64) []float64 {
	out := make([]float64, len(q.sp))
	for i, sp := range q.sp {
		out[i] = math.Inf(-1)
		if sp != noSP {
			out[i] = orderKey(q.mean[i], q.std[i], sign, sign*e.st.NSigma)
		}
	}
	return out
}

func captureState(e *Engine) engineState {
	cp := func(xs []float64) []float64 { return append([]float64(nil), xs...) }
	cpi := func(xs []int32) []int32 { return append([]int32(nil), xs...) }
	s := engineState{
		topArr:  derivedKeys(e, e.top.q, 1),
		topMean: cp(e.top.q.mean),
		topStd:  cp(e.top.q.std),
		topSP:   cpi(e.top.q.sp),
		epSlack: cp(e.epSlack),
		epSP:    cpi(e.epSP),
	}
	for rf := 0; rf < 2 && e.grad != nil; rf++ {
		s.gradArr[rf] = cp(e.grad.gradArr[rf])
		s.gradMean[rf] = cp(e.grad.gradMean[rf])
		s.gradStd[rf] = cp(e.grad.gradStd[rf])
	}
	if e.hold != nil {
		s.holdNegArr = derivedKeys(e, e.hold.q, -1)
		s.holdSlack = cp(e.hold.epSlack)
	}
	return s
}

// diffState returns the name of the first differing buffer, or "".
func diffState(a, b engineState) string {
	eq := func(x, y []float64) bool {
		for i := range x {
			// Bitwise comparison: NaN != NaN under ==, and we must also
			// distinguish -Inf slots, so compare with == after checking both
			// are identical floats (the buffers never hold NaN).
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	eqi := func(x, y []int32) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	switch {
	case !eq(a.topArr, b.topArr):
		return "topArr"
	case !eq(a.topMean, b.topMean):
		return "topMean"
	case !eq(a.topStd, b.topStd):
		return "topStd"
	case !eqi(a.topSP, b.topSP):
		return "topSP"
	case !eq(a.epSlack, b.epSlack):
		return "epSlack"
	case !eqi(a.epSP, b.epSP):
		return "epSP"
	case !eq(a.holdNegArr, b.holdNegArr):
		return "hold.negArr"
	case !eq(a.holdSlack, b.holdSlack):
		return "hold.epSlack"
	}
	for rf := 0; rf < 2; rf++ {
		switch {
		case !eq(a.gradArr[rf], b.gradArr[rf]):
			return "gradArr"
		case !eq(a.gradMean[rf], b.gradMean[rf]):
			return "gradMean"
		case !eq(a.gradStd[rf], b.gradStd[rf]):
			return "gradStd"
		}
	}
	return ""
}

// workerCounts is the ISSUE-mandated sweep, deduplicated (NumCPU may be 1).
func workerCounts() []int {
	want := []int{1, 2, 7, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, w := range want {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	presets := []struct {
		name string
		spec func() (bench.Spec, error)
		hold bool
	}{
		{"des", func() (bench.Spec, error) { return bench.IWLSSpec("des") }, false},
		{"superblue18", func() (bench.Spec, error) { return bench.SuperblueSpec("superblue18") }, true},
		{"superblue16", func() (bench.Spec, error) { return bench.SuperblueSpec("superblue16") }, false},
	}
	for _, pr := range presets {
		t.Run(pr.name, func(t *testing.T) {
			spec, err := pr.spec()
			if err != nil {
				t.Fatal(err)
			}
			b, err := bench.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			tab := circuitops.Extract(ref)

			run := func(workers int) engineState {
				// Grain 8 splits even narrow levels into several chunks, so
				// worker counts > 1 genuinely interleave.
				e, err := NewEngine(tab, Options{
					TopK: 6, Tau: 25, Hold: pr.hold, Workers: workers, Grain: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				e.Run()
				e.Backward()
				if pr.hold {
					e.EvalHoldSlacks()
				}
				return captureState(e)
			}

			want := run(1)
			for _, w := range workerCounts()[1:] {
				got := run(w)
				if d := diffState(want, got); d != "" {
					t.Fatalf("workers=%d: buffer %s differs from workers=1", w, d)
				}
			}
		})
	}
}

// TestIncrementalDeterministicAcrossWorkerCounts covers the fourth migrated
// pass: after a batch of re-annotations, an overlay's commit must land on the
// same bits for any worker count (and agree with a full Propagate).
func TestIncrementalDeterministicAcrossWorkerCounts(t *testing.T) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := circuitops.Extract(ref)

	run := func(workers int) engineState {
		e, err := NewEngine(tab, Options{TopK: 4, Workers: workers, Grain: 8})
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		// Perturb a scattered set of arcs so the wavefront covers many levels.
		o := NewOverlay(e)
		for arc := int32(3); arc < int32(e.NumArcs()); arc += 61 {
			for rf := 0; rf < 2; rf++ {
				d := e.ArcDelay(arc, rf)
				d.Mean *= 1.15
				d.Std *= 1.05
				o.SetArcDelay(arc, rf, d)
			}
		}
		o.Commit()
		return captureState(e)
	}

	want := run(1)
	for _, w := range workerCounts()[1:] {
		got := run(w)
		if d := diffState(want, got); d != "" {
			t.Fatalf("workers=%d: buffer %s differs from workers=1", w, d)
		}
	}
}
