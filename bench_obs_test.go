// Observability overhead harness: TestObsBenchRegression times the core
// engine's steady-state Run with no tracer, with a disabled tracer attached,
// and with an enabled tracer, and writes BENCH_obs.json at the repo root.
// The disabled-tracer case is the one every production caller pays — the
// spans compile down to a nil check per phase/level — so its overhead is
// gated at < 1% when INSTA_OBS_GATE=1 (ci.sh sets it); ad-hoc runs only get
// a loose noise guard so a loaded laptop doesn't fail the suite. The
// enabled-tracer ratio is recorded ungated as a diagnostic of what a capture
// window costs. The same report also covers the per-request observability hot
// path added in PR 9 — FlightRecorder.Record and SLOTracker.Record ns/op with
// unconditional zero-allocation gates, plus a deterministic burn-rate
// arithmetic fixture.
package insta

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/obs"
)

type obsBenchReport struct {
	NumCPU     int    `json:"numcpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Name       string `json:"name"`
	Pins       int    `json:"pins"`
	TopK       int    `json:"top_k"`
	Samples    int    `json:"samples"`
	BaselineNs int64  `json:"run_baseline_ns"`
	DisabledNs int64  `json:"run_disabled_ns"`
	// DisabledOverheadPct can dip negative in the noise floor; the gate only
	// bounds it from above.
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"`
	EnabledNs           int64   `json:"run_enabled_ns"`
	EnabledOverheadPct  float64 `json:"enabled_overhead_pct"`
	SpansPerRun         int     `json:"spans_per_run"`
	// Per-request observability hot path (DESIGN.md §15): the flight recorder
	// and SLO tracker sit on every served request, so both Record calls must
	// stay allocation-free — the allocs fields are asserted to be exactly 0
	// (allocation counts are deterministic, so this holds gated or not).
	RecorderRecordNs     int64   `json:"recorder_record_ns"`
	RecorderRecordAllocs float64 `json:"recorder_record_allocs"`
	SLORecordNs          int64   `json:"slo_record_ns"`
	SLORecordAllocs      float64 `json:"slo_record_allocs"`
	// BurnFixture is a deterministic burn-rate arithmetic check: 900 good +
	// 50 slow + 50 failed requests against a 10% error budget must read back
	// as bad_fraction 0.1 and burn_rate 1.0 exactly.
	BurnFixture obs.BurnRate `json:"burn_fixture"`
}

func TestObsBenchRegression(t *testing.T) {
	const preset = "block-2"
	const topK = 8
	const samples = 9
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	opt := core.Options{TopK: topK, Workers: 1}
	base, err := core.NewEngine(s.Tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	tr := obs.NewTracer()
	tr.Disable()
	optTr := opt
	optTr.Tracer = tr
	traced, err := core.NewEngine(s.Tab, optTr)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	tr.Reset() // drop the (disabled, hence empty) build window

	base.Run()
	traced.Run() // warm both engines' queues before sampling

	rep := obsBenchReport{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: 1,
		Name: preset, Pins: s.B.D.NumPins(), TopK: topK, Samples: samples,
	}
	// Each sample times a burst of Runs: one Run is ~10ms on block-2, close
	// enough to the timer/GC noise floor that a 1% bound needs amortizing.
	// The whole interleaved-min measurement then repeats, and the gate takes
	// the best repetition: the disabled path adds a handful of nil checks per
	// run, so any repetition that escapes background load shows ~0%, while a
	// real regression (an allocation leaking into the hot path) inflates
	// every repetition and still trips the bound.
	const burst = 5
	const reps = 3
	for r := 0; r < reps; r++ {
		b, d := pairedMinNs(samples,
			func() {
				for i := 0; i < burst; i++ {
					base.Run()
				}
			},
			func() {
				for i := 0; i < burst; i++ {
					traced.Run()
				}
			})
		pct := 100 * (float64(d) - float64(b)) / float64(b)
		if r == 0 || pct < rep.DisabledOverheadPct {
			rep.BaselineNs, rep.DisabledNs = b/burst, d/burst
			rep.DisabledOverheadPct = pct
		}
	}

	tr.Enable()
	rep.EnabledNs = medianNs(3, func() {
		tr.Reset()
		for i := 0; i < burst; i++ {
			traced.Run()
		}
	}) / burst
	rep.SpansPerRun = tr.NumSpans() / burst
	tr.Disable()
	rep.EnabledOverheadPct = 100 * (float64(rep.EnabledNs) - float64(rep.BaselineNs)) / float64(rep.BaselineNs)

	// Flight-recorder + SLO hot path. A pin threshold of an hour keeps the
	// anomaly path (which snapshots span trees, and may allocate) out of the
	// steady-state measurement — the served path only pins on breach.
	fr := obs.NewFlightRecorder(obs.FlightRecorderOptions{Size: 4096, PinThreshold: time.Hour})
	slo := obs.NewSLOTracker(obs.SLOOptions{Objective: 100 * time.Millisecond, ErrorBudget: 0.01})
	now := time.Unix(1_700_000_000, 0) // fixed clock: bucket math without wall-time jitter
	reqRec := obs.ReqRecord{
		Trace: obs.NewTraceID(), Route: "eco", Shard: "s-1", Replica: 1,
		Status: 200, QueueNs: 1_000, ServeNs: 2_000_000, TotalNs: 2_001_000,
		Unix: now.UnixNano(),
	}
	rep.RecorderRecordAllocs = testing.AllocsPerRun(1024, func() { fr.Record(reqRec) })
	rep.SLORecordAllocs = testing.AllocsPerRun(1024, func() { slo.Record(2*time.Millisecond, false, now) })
	const hotN = 1 << 16
	rep.RecorderRecordNs = medianNs(3, func() {
		for i := 0; i < hotN; i++ {
			fr.Record(reqRec)
		}
	}) / hotN
	rep.SLORecordNs = medianNs(3, func() {
		for i := 0; i < hotN; i++ {
			slo.Record(2*time.Millisecond, false, now)
		}
	}) / hotN

	// Burn-rate arithmetic fixture: 1000 requests in one 5m window — 900
	// inside the objective, 50 over it, 50 failed outright — against a 10%
	// budget is exactly a 1.0x burn (spending the budget exactly as allowed).
	fix := obs.NewSLOTracker(obs.SLOOptions{Objective: 10 * time.Millisecond, ErrorBudget: 0.1})
	for i := 0; i < 900; i++ {
		fix.Record(time.Millisecond, false, now)
	}
	for i := 0; i < 50; i++ {
		fix.Record(50*time.Millisecond, false, now) // slow: breaches the objective
	}
	for i := 0; i < 50; i++ {
		fix.Record(time.Millisecond, true, now) // fast but failed
	}
	rep.BurnFixture = fix.Burn(5*time.Minute, now.Add(time.Second))

	t.Logf("%s: baseline %v, disabled-tracer %v (%+.2f%%), enabled %v (%+.2f%%, %d spans/run); recorder %dns/op (%.0f allocs), slo %dns/op (%.0f allocs), burn fixture %.3f",
		preset, time.Duration(rep.BaselineNs), time.Duration(rep.DisabledNs), rep.DisabledOverheadPct,
		time.Duration(rep.EnabledNs), rep.EnabledOverheadPct, rep.SpansPerRun,
		rep.RecorderRecordNs, rep.RecorderRecordAllocs, rep.SLORecordNs, rep.SLORecordAllocs, rep.BurnFixture.Burn)

	// Gate. The strict 1% bound is the ISSUE acceptance bar; it needs the
	// quiet interleaved-min conditions ci.sh provides, so casual runs get a
	// loose guard that still catches a hot-path span leaking allocation.
	limit := 25.0
	if os.Getenv("INSTA_OBS_GATE") == "1" {
		limit = 1.0
	}
	if rep.DisabledOverheadPct >= limit {
		t.Errorf("disabled-tracer overhead %.2f%% >= %.1f%% gate (baseline %v, disabled %v)",
			rep.DisabledOverheadPct, limit, time.Duration(rep.BaselineNs), time.Duration(rep.DisabledNs))
	}
	if rep.SpansPerRun == 0 {
		t.Error("enabled tracer recorded no spans — the engine hot paths lost their instrumentation")
	}
	// Zero-alloc and arithmetic gates are unconditional: neither depends on
	// machine load, so a failure here is a real regression, not CI noise.
	if rep.RecorderRecordAllocs != 0 {
		t.Errorf("FlightRecorder.Record allocates %.1f/op, want 0 — the per-request ring must stay allocation-free", rep.RecorderRecordAllocs)
	}
	if rep.SLORecordAllocs != 0 {
		t.Errorf("SLOTracker.Record allocates %.1f/op, want 0 — burn-rate bookkeeping must stay allocation-free", rep.SLORecordAllocs)
	}
	fx := rep.BurnFixture
	if fx.Total != 1000 || fx.Bad != 100 ||
		math.Abs(fx.BadFraction-0.1) > 1e-12 || math.Abs(fx.Burn-1.0) > 1e-12 {
		t.Errorf("burn fixture: got total=%d bad=%d bad_fraction=%g burn=%g, want 1000/100/0.1/1.0", fx.Total, fx.Bad, fx.BadFraction, fx.Burn)
	}

	writeBenchJSON(t, "BENCH_obs.json", &rep)
}
