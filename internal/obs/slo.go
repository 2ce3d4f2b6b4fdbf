package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLOTracker: rolling multi-window burn-rate monitoring in the style of the
// SRE-workbook multiwindow alerts. The objective is a latency bound ("p99 of
// session work under X") plus an error budget (the fraction of requests
// allowed to miss it — by exceeding the objective or by failing outright).
// The burn rate over a window is
//
//	burn = bad_fraction(window) / error_budget
//
// so 1.0 means "spending the budget exactly as fast as allowed", 10 means
// "the monthly budget gone in 3 days". Tracking two windows (default 5m and
// 1h) separates fast burn (page) from slow burn (ticket) and de-flaps the
// short window.
//
// Implementation: a time wheel of fixed buckets covering the longest window.
// Record is allocation-free — bucket index arithmetic plus two integer adds
// under a mutex — so it can sit next to the flight recorder on every request.

// SLOOptions configures NewSLOTracker. The zero value is usable: 100 ms
// objective, 1% error budget, 5m/1h windows, 10 s buckets.
type SLOOptions struct {
	Objective   time.Duration   // per-request latency objective; <= 0 means 100 ms
	ErrorBudget float64         // allowed bad fraction in (0, 1]; <= 0 means 0.01
	Windows     []time.Duration // burn windows, ascending; empty means {5m, 1h}
	Granularity time.Duration   // bucket width; <= 0 means longest window / 360
}

// BurnRate is one window's burn state.
type BurnRate struct {
	Window      string  `json:"window"` // "5m", "1h"
	Total       uint64  `json:"total"`
	Bad         uint64  `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	Burn        float64 `json:"burn_rate"` // BadFraction / ErrorBudget
}

// sloBucket is one wheel slot: the absolute bucket index it currently holds
// counts for, plus totals. A slot is live only while its idx matches the
// queried time range — stale slots (no traffic for a full wheel revolution)
// are skipped at read time and recycled at write time.
type sloBucket struct {
	idx        int64
	total, bad uint64
}

// SLOTracker holds the wheel. Construct with NewSLOTracker; methods are safe
// for concurrent use and safe on nil (no-op / zero results).
type SLOTracker struct {
	objectiveNs int64
	budget      float64
	windows     []time.Duration
	widthNs     int64

	mu    sync.Mutex
	wheel []sloBucket
}

// NewSLOTracker returns a tracker with the given options.
func NewSLOTracker(opt SLOOptions) *SLOTracker {
	if opt.Objective <= 0 {
		opt.Objective = 100 * time.Millisecond
	}
	if opt.ErrorBudget <= 0 || opt.ErrorBudget > 1 {
		opt.ErrorBudget = 0.01
	}
	if len(opt.Windows) == 0 {
		opt.Windows = []time.Duration{5 * time.Minute, time.Hour}
	}
	longest := opt.Windows[len(opt.Windows)-1]
	for _, w := range opt.Windows {
		if w > longest {
			longest = w
		}
	}
	if opt.Granularity <= 0 {
		opt.Granularity = longest / 360
		if opt.Granularity < time.Second {
			opt.Granularity = time.Second
		}
	}
	n := int(longest/opt.Granularity) + 2 // +1 partial head, +1 partial tail
	s := &SLOTracker{
		objectiveNs: int64(opt.Objective),
		budget:      opt.ErrorBudget,
		windows:     append([]time.Duration(nil), opt.Windows...),
		widthNs:     int64(opt.Granularity),
		wheel:       make([]sloBucket, n),
	}
	for i := range s.wheel {
		s.wheel[i].idx = -1
	}
	return s
}

// Objective returns the latency objective.
func (s *SLOTracker) Objective() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.objectiveNs)
}

// Record counts one request: bad when it failed outright or exceeded the
// latency objective. Allocation-free. Safe on nil.
func (s *SLOTracker) Record(total time.Duration, failed bool, now time.Time) {
	if s == nil {
		return
	}
	bad := failed || int64(total) > s.objectiveNs
	idx := now.UnixNano() / s.widthNs
	s.mu.Lock()
	b := &s.wheel[idx%int64(len(s.wheel))]
	if b.idx != idx {
		b.idx, b.total, b.bad = idx, 0, 0
	}
	b.total++
	if bad {
		b.bad++
	}
	s.mu.Unlock()
}

// Burn returns the burn state over one window ending at now.
func (s *SLOTracker) Burn(window time.Duration, now time.Time) BurnRate {
	if s == nil {
		return BurnRate{}
	}
	nowIdx := now.UnixNano() / s.widthNs
	minIdx := nowIdx - int64(window/time.Duration(s.widthNs))
	br := BurnRate{Window: shortDur(window)}
	s.mu.Lock()
	for i := range s.wheel {
		b := &s.wheel[i]
		if b.idx > minIdx && b.idx <= nowIdx {
			br.Total += b.total
			br.Bad += b.bad
		}
	}
	s.mu.Unlock()
	if br.Total > 0 {
		br.BadFraction = float64(br.Bad) / float64(br.Total)
		br.Burn = br.BadFraction / s.budget
	}
	return br
}

// Snapshot returns the burn state of every configured window ending at now.
func (s *SLOTracker) Snapshot(now time.Time) []BurnRate {
	if s == nil {
		return nil
	}
	out := make([]BurnRate, 0, len(s.windows))
	for _, w := range s.windows {
		out = append(out, s.Burn(w, now))
	}
	return out
}

// RegisterMetrics exports the tracker as gauges on reg under the given
// prefix: <prefix>_slo_burn_rate_<window>, plus the static objective and
// budget for dashboard math.
func (s *SLOTracker) RegisterMetrics(reg *Registry, prefix string) {
	if s == nil || reg == nil {
		return
	}
	for _, w := range s.windows {
		w := w
		reg.GaugeFunc(prefix+"_slo_burn_rate_"+shortDur(w), func() float64 {
			return s.Burn(w, time.Now()).Burn
		})
	}
	reg.GaugeFunc(prefix+"_slo_objective_seconds", func() float64 {
		return s.Objective().Seconds()
	})
	reg.GaugeFunc(prefix+"_slo_error_budget", func() float64 { return s.budget })
}

// shortDur renders a window as the conventional SRE label: "5m", "1h", "30s".
func shortDur(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return fmt.Sprintf("%ds", d/time.Second)
	}
}
