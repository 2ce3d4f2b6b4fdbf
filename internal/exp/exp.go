// Package exp contains the harnesses that regenerate every table and figure
// of the paper's evaluation (§IV) on the synthetic design suite:
//
//	Table I  — INSTA vs reference-engine correlation on five blocks
//	Fig. 6   — the Top-K trade-off (K = 1 to 128) on block-1
//	Fig. 7   — incremental STA runtime per sizing iteration (3 engines)
//	Fig. 8   — correlation before/after a sizing flow with estimate_eco only
//	Table II — INSTA-Size vs baseline sizer on the IWLS-like suite
//	Table III— INSTA-Place vs DP vs DP4.0 net weighting on superblue-like suite
//	Fig. 9   — runtime breakdown of one timing-refresh placement iteration
//
// Each harness returns structured results (consumed by the benchmarks in
// bench_test.go and by tests) and can render the paper-style table to a
// writer (consumed by cmd/insta-paper, which writes results/).
package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
	"insta/internal/refsta"
)

// Setup bundles one generated design with its initialized reference engine
// and the compiled INSTA state the harnesses build engines from.
type Setup struct {
	B     *bench.Design
	Ref   *refsta.Engine
	Tab   *circuitops.Tables
	State *core.State
}

// Build generates a design and initializes the reference engine, the
// extraction tables, and the compiled state (the one-time initialization of
// Fig. 2). Generation and reference set-up dominate a Build and no snapshot
// can skip them; extract + compile are a few percent of it, so every Build
// runs all of it.
func Build(spec bench.Spec) (*Setup, error) {
	b, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &Setup{B: b, Ref: ref, Tab: circuitops.Extract(ref)}
	if s.State, err = core.Compile(s.Tab); err != nil {
		return nil, err
	}
	return s, nil
}

// Correlate compares INSTA endpoint slacks against the reference engine's.
// Endpoints both sides agree are untimed (+Inf, fully false-pathed) are
// skipped; endpoints where exactly one side is untimed — a Top-K truncation
// dropping the only timed startpoint — are excluded from the statistics but
// counted in disagree.
func Correlate(ref, got []float64) (r float64, ms num.MismatchStats, n, disagree int, err error) {
	var a, b []float64
	for i := range ref {
		ri, gi := math.IsInf(ref[i], 0), math.IsInf(got[i], 0)
		switch {
		case ri && gi:
			continue
		case ri != gi:
			disagree++
			continue
		}
		a = append(a, ref[i])
		b = append(b, got[i])
	}
	if r, err = num.Pearson(a, b); err != nil {
		return 0, ms, 0, disagree, err
	}
	ms, err = num.Mismatch(a, b)
	return r, ms, len(a), disagree, err
}

// timeIt runs fn and returns its wall-clock duration.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
