package obs

import (
	"strings"
	"testing"
	"time"
)

// TestSLOBurnRateFixture is the deterministic burn-rate-math fixture: 1000
// requests with 100 bad against a 10% budget burn at exactly 1.0.
func TestSLOBurnRateFixture(t *testing.T) {
	s := NewSLOTracker(SLOOptions{Objective: time.Millisecond, ErrorBudget: 0.1})
	now := time.Unix(1_000_000, 0)
	for i := 0; i < 900; i++ {
		s.Record(100*time.Microsecond, false, now)
	}
	for i := 0; i < 50; i++ {
		s.Record(5*time.Millisecond, false, now) // objective breach = bad
	}
	for i := 0; i < 50; i++ {
		s.Record(100*time.Microsecond, true, now) // outright failure = bad
	}
	for _, w := range []time.Duration{5 * time.Minute, time.Hour} {
		br := s.Burn(w, now)
		if br.Total != 1000 || br.Bad != 100 {
			t.Fatalf("%v window: total/bad = %d/%d, want 1000/100", w, br.Total, br.Bad)
		}
		if br.BadFraction != 0.1 || br.Burn != 1.0 {
			t.Fatalf("%v window: frac %g burn %g, want 0.1 / 1.0", w, br.BadFraction, br.Burn)
		}
	}
}

// TestSLOWindowSeparation pins that old badness ages out of the short window
// while the long window still sees it.
func TestSLOWindowSeparation(t *testing.T) {
	s := NewSLOTracker(SLOOptions{Objective: time.Millisecond, ErrorBudget: 0.1})
	t0 := time.Unix(2_000_000, 0)
	for i := 0; i < 10; i++ {
		s.Record(time.Microsecond, true, t0) // 10 bad at t0
	}
	later := t0.Add(10 * time.Minute)
	for i := 0; i < 10; i++ {
		s.Record(time.Microsecond, false, later) // 10 good 10m later
	}
	short := s.Burn(5*time.Minute, later)
	long := s.Burn(time.Hour, later)
	if short.Bad != 0 || short.Total != 10 {
		t.Fatalf("5m window should only see the recent good traffic: %+v", short)
	}
	if long.Bad != 10 || long.Total != 20 {
		t.Fatalf("1h window should see everything: %+v", long)
	}
	if long.Burn != 5.0 { // 10/20 = 0.5 bad fraction over 0.1 budget
		t.Fatalf("1h burn = %g, want 5.0", long.Burn)
	}
}

// TestSLOWheelRecycling pins that a wheel slot reused after a full revolution
// drops its stale counts instead of double-counting.
func TestSLOWheelRecycling(t *testing.T) {
	s := NewSLOTracker(SLOOptions{
		Objective: time.Millisecond, ErrorBudget: 0.5,
		Windows: []time.Duration{10 * time.Second}, Granularity: time.Second,
	})
	t0 := time.Unix(3_000_000, 0)
	s.Record(time.Microsecond, true, t0)
	// Two full revolutions later the same slot is reused.
	t1 := t0.Add(40 * time.Second)
	s.Record(time.Microsecond, false, t1)
	br := s.Burn(10*time.Second, t1)
	if br.Total != 1 || br.Bad != 0 {
		t.Fatalf("stale slot leaked into window: %+v", br)
	}
}

func TestSLORecordAllocFree(t *testing.T) {
	s := NewSLOTracker(SLOOptions{})
	now := time.Now()
	allocs := testing.AllocsPerRun(10000, func() { s.Record(50*time.Millisecond, false, now) })
	if allocs != 0 {
		t.Fatalf("SLOTracker.Record allocates %.2f/op, want 0", allocs)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLOTracker
	s.Record(time.Second, true, time.Now())
	if br := s.Burn(time.Minute, time.Now()); br.Total != 0 {
		t.Fatal("nil tracker must be inert")
	}
	if s.Snapshot(time.Now()) != nil || s.Objective() != 0 {
		t.Fatal("nil tracker must be inert")
	}
	s.RegisterMetrics(NewRegistry(), "x")
}

func TestSLORegisterMetrics(t *testing.T) {
	s := NewSLOTracker(SLOOptions{Objective: 100 * time.Millisecond, ErrorBudget: 0.01})
	reg := NewRegistry()
	s.RegisterMetrics(reg, "insta")
	now := time.Now()
	for i := 0; i < 10; i++ {
		s.Record(time.Millisecond, i == 0, now) // 1 bad of 10 = 0.1 frac = burn 10
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE insta_slo_burn_rate_5m gauge",
		"insta_slo_burn_rate_5m 10\n",
		"insta_slo_burn_rate_1h 10\n",
		"insta_slo_objective_seconds 0.1\n",
		"insta_slo_error_budget 0.01\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestShortDur(t *testing.T) {
	cases := map[time.Duration]string{
		5 * time.Minute:  "5m",
		time.Hour:        "1h",
		30 * time.Second: "30s",
		90 * time.Minute: "90m",
	}
	for d, want := range cases {
		if got := shortDur(d); got != want {
			t.Errorf("shortDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestGauges(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_depth")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(2.5)
	if v := g.Value(); v != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", v)
	}
	g.Set(7)
	reg.GaugeFunc("test_fn", func() float64 { return 42 })
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	want := "# TYPE test_depth gauge\ntest_depth 7\n" +
		"# TYPE test_fn gauge\ntest_fn 42\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestGaugeAllocFree(t *testing.T) {
	g := &Gauge{}
	allocs := testing.AllocsPerRun(10000, func() { g.Inc(); g.Dec() })
	if allocs != 0 {
		t.Fatalf("Gauge Inc/Dec allocates %.2f/op, want 0", allocs)
	}
}
