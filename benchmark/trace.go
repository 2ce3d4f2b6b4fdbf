package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer: name, start, end,
// the span that caused it and the op it belongs to.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent, op int
	tid        int // client goroutine, so concurrent ops render on separate rows
}

// tracer keeps the harness's own spans in memory; nothing is written until
// the run ends. A nil tracer records nothing, so the untraced pass pays one
// nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: op, tid: tid})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// timed runs fn inside a root span and returns its wall time; probes use it
// so every call the traced pass makes into a layer lands in the trace file.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name, -1, -1, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTimes sums, per span name, the span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// write emits the spans as Chrome trace_event JSON (load in chrome://tracing
// or Perfetto), with the per-name self times and any extra tables attached.
func (t *tracer) write(path string, extra map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	self := map[string]float64{}
	for name, d := range t.selfTimes() {
		self[name] = ms(d)
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	t.mu.Unlock()
	doc := map[string]any{"traceEvents": events, "selfTimeMs": self}
	for k, v := range extra {
		doc[k] = v
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile returns the q-th latency by upper rank; lat must be sorted.
func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	i := int(q * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return lat[i]
}

func sortDurations(lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
}

// sample times fn n times and returns the sorted wall times.
func sample(n int, fn func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0)
	}
	sortDurations(out)
	return out
}

func median(lat []time.Duration) time.Duration { return quantile(lat, 0.5) }
