package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the single metrics surface: counters, gauges and fixed-bound
// histograms registered once, rendered in the Prometheus text exposition
// format from one place, in registration order. The serving layer's /metrics
// is one Registry; the engine's kernel telemetry (sched.Stats) plugs in
// through a Collector so dynamic series render from the same writer.
type Registry struct {
	mu    sync.Mutex
	parts []renderable
	names map[string]bool
}

// renderable is one registered family in exposition order.
type renderable interface {
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register panics on duplicate family names — metric registration happens at
// construction time, so a collision is a programming error worth failing
// loudly on, matching what a real Prometheus client library does.
func (r *Registry) register(name string, p renderable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric family %q", name))
	}
	r.names[name] = true
	r.parts = append(r.parts, p)
}

// WritePrometheus renders every registered family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	parts := append([]renderable(nil), r.parts...)
	r.mu.Unlock()
	for _, p := range parts {
		p.render(w)
	}
}

// Counter is a monotonically increasing integer series.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

type counterPart struct {
	name string
	c    *Counter
}

func (p *counterPart) render(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s counter\n", p.name)
	fmt.Fprintf(w, "%s %d\n", p.name, p.c.Value())
}

// Counter registers and returns a single unlabeled counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, &counterPart{name: name, c: c})
	return c
}

// CounterVec is a counter family with a fixed label set; series are created
// on first use and render sorted by label values.
type CounterVec struct {
	name   string
	labels []string

	mu     sync.Mutex
	series map[string]*Counter // key: label values joined by \x00
}

// With returns (creating if needed) the series for the given label values,
// which must match the declared label count.
func (cv *CounterVec) With(values ...string) *Counter {
	if len(values) != len(cv.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", cv.name, len(cv.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c := cv.series[key]
	if c == nil {
		c = &Counter{}
		cv.series[key] = c
	}
	return c
}

func (cv *CounterVec) render(w io.Writer) {
	cv.mu.Lock()
	keys := make([]string, 0, len(cv.series))
	for k := range cv.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# TYPE %s counter\n", cv.name)
	for _, k := range keys {
		values := strings.Split(k, "\x00")
		var sb strings.Builder
		for i, l := range cv.labels {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%s=%q", l, values[i])
		}
		fmt.Fprintf(w, "%s{%s} %d\n", cv.name, sb.String(), cv.series[k].Value())
	}
	cv.mu.Unlock()
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	cv := &CounterVec{name: name, labels: labels, series: make(map[string]*Counter)}
	r.register(name, cv)
	return cv
}

// Gauge is a settable instantaneous value (in-flight depth, live sessions,
// burn rates). Stored as float64 bits in an atomic word so Inc/Dec from
// request paths never take a lock.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; contention is per-request, not per-pin).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type gaugePart struct {
	name string
	g    *Gauge
}

func (p *gaugePart) render(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s gauge\n", p.name)
	fmt.Fprintf(w, "%s %g\n", p.name, p.g.Value())
}

// Gauge registers and returns a single unlabeled gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.register(name, &gaugePart{name: name, g: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time — for
// values already maintained elsewhere (SLO burn rates, ring occupancy).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(name, &gaugeFuncPart{name: name, fn: fn})
}

type gaugeFuncPart struct {
	name string
	fn   func() float64
}

func (p *gaugeFuncPart) render(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s gauge\n", p.name)
	fmt.Fprintf(w, "%s %g\n", p.name, p.fn())
}

// Collector registers a callback rendered in place at its registration
// position — the escape hatch for series derived from live state (session
// counts, kernel telemetry) rather than stored in the registry.
func (r *Registry) Collector(name string, fn func(io.Writer)) {
	r.register(name, collectorPart(fn))
}

type collectorPart func(io.Writer)

func (p collectorPart) render(w io.Writer) { p(w) }

// Histogram is a fixed-bound histogram: counts per bucket (upper-bound
// inclusive), a sum, and an overflow bucket. Cheap enough to guard with a
// mutex — observations are one per HTTP request or per committed run, never
// per pin.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last is the overflow bucket
	sum    float64
	n      int64
}

// NewHistogram returns a histogram over the given ascending bucket upper
// bounds. The slice is retained.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Histogram registers a histogram rendered under the given family name (use
// the full name including unit suffix, e.g. "insta_request_seconds").
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, &histogramPart{name: name, h: h})
	return h
}

type histogramPart struct {
	name string
	h    *Histogram
}

func (p *histogramPart) render(w io.Writer) { p.h.WritePrometheus(w, p.name) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the observation count.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket holding the q-th observation, the same estimator
// Prometheus's histogram_quantile applies: the target rank q·n is located in
// the cumulative distribution and mapped linearly between the bucket's lower
// and upper bound. A single 0.3 ms observation in the (0.25 ms, 0.5 ms]
// bucket therefore reports p50 = 0.375 ms — the bucket's midpoint — rather
// than the 0.5 ms upper bound the pre-obs implementation returned.
// Observations in the overflow bucket clamp to the highest bound. Returns 0
// with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: no finite upper bound to interpolate toward.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// WritePrometheus renders the histogram in the text exposition format under
// the given family name: cumulative _bucket series, _sum and _count.
func (h *Histogram) WritePrometheus(w io.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n)
}
