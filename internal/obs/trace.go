// Package obs is INSTA's unified telemetry layer: a hierarchical span tracer
// with Chrome trace_event export, one Prometheus-style metrics registry, and
// run manifests — the instrumentation the paper's runtime claims (§IV-A ties
// propagation cost to level count and per-level span width) are validated
// against.
//
// Everything here is dependency-light by design: the tracer and registry are
// importable from the innermost kernels (core, batch, sched) without pulling
// in HTTP, flag or file-system machinery, and the *disabled* tracer costs one
// predictable branch per call with zero allocations — cheap enough to leave
// the Start/End pairs compiled into every hot path permanently.
//
// Span model. A Tracer hands out Spans; a Span hands out children. Methods on
// a nil *Tracer and a nil *Span are no-ops, and a disabled tracer returns nil
// spans, so call sites never guard:
//
//	sp := e.tracer.Start("forward")         // nil-safe, zero-alloc when off
//	ls := sp.ChildArg("level", "level", 7)  // nested span with one argument
//	ls.End()
//	sp.End()
//
// Completed spans accumulate in the tracer and export as Chrome trace_event
// JSON (chrome://tracing, Perfetto) with properly nested B/E pairs.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the tracer's retained span count so an accidentally
// always-on tracer under serving traffic degrades by dropping spans, not by
// exhausting memory. A full-graph propagate on the deepest bench preset emits
// a few thousand spans; one million covers minutes of traced serving.
const maxSpans = 1 << 20

// spanRecord is one completed span as retained by the tracer.
type spanRecord struct {
	id     int64
	parent int64 // 0 = root
	name   string
	start  time.Duration // since tracer epoch
	dur    time.Duration
	argKey string // "" = no argument
	argVal int64
	trace  TraceID // zero for spans outside any request trace
	remote uint64  // wire id of a remote parent (StartRemote); 0 = none
}

// Tracer collects spans. The zero value is not usable; construct with
// NewTracer. All methods are safe for concurrent use and safe on a nil
// receiver (the disabled fast path).
type Tracer struct {
	enabled atomic.Bool
	nextID  atomic.Int64
	epoch   time.Time
	seed    uint64 // per-process wire-id seed (see wireID)

	mu    sync.Mutex
	spans []spanRecord
}

// NewTracer returns an enabled tracer. Use Disable for a tracer that is wired
// in but dormant until a debug endpoint (or a flag) switches it on.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now(), seed: mix64(uint64(time.Now().UnixNano()) ^ traceCtr.Add(1)<<17)}
	t.enabled.Store(true)
	return t
}

// wireID projects a process-local span id to its cross-process wire id: the
// tracer seed and local id through one splitmix64 round. Deterministic per
// tracer, so exports can resolve parent links without storing the wire id per
// span. Never zero (zero means "no span" on the wire).
func (t *Tracer) wireID(id int64) uint64 {
	w := mix64(t.seed ^ uint64(id))
	if w == 0 {
		w = 1
	}
	return w
}

// Epoch returns the tracer's time origin; span starts are offsets from it.
// The stitched exporter uses it to place spans from different processes on
// one absolute timeline.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Enable switches span recording on. Safe on nil (no-op).
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable switches span recording off: Start returns nil spans until Enable.
// Spans already started keep recording through their End. Safe on nil.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Enabled reports whether the tracer is recording. False on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Start opens a root span. Returns nil — and allocates nothing — when the
// tracer is nil or disabled.
func (t *Tracer) Start(name string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &Span{tr: t, id: t.nextID.Add(1), name: name, start: time.Since(t.epoch)}
}

// StartArg is Start with one integer argument attached (rendered under
// "args" in the Chrome export). The fixed-arity form keeps the disabled path
// free of variadic slice allocations.
func (t *Tracer) StartArg(name, key string, val int64) *Span {
	sp := t.Start(name)
	if sp != nil {
		sp.argKey, sp.argVal = key, val
	}
	return sp
}

// StartRemote opens a root span joined to a request trace: the span adopts
// sc.Trace (minting a fresh TraceID when sc is zero — the edge case where
// this process *is* the edge) and records sc.Span as its remote parent, so
// the stitched export can hang this process's subtree under the caller's
// attempt span. Returns nil when the tracer is nil or disabled, like Start.
func (t *Tracer) StartRemote(name string, sc SpanContext) *Span {
	sp := t.Start(name)
	if sp != nil {
		if sc.Trace.IsZero() {
			sc.Trace = NewTraceID()
		}
		sp.trace, sp.remote = sc.Trace, sc.Span
	}
	return sp
}

// StartTrace opens a root span under a freshly minted TraceID — StartRemote
// with no remote parent, for edge processes minting request identity.
func (t *Tracer) StartTrace(name string) *Span {
	return t.StartRemote(name, SpanContext{})
}

// Mark returns a watermark identifying the current end of the span buffer;
// WriteChromeTraceSince(w, mark) exports only spans completed after it. The
// serving layer's /debug/trace uses this to window a capture without
// discarding spans an always-on -trace run is accumulating.
func (t *Tracer) Mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset discards all completed spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// NumSpans returns the completed span count.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Span is one in-flight or completed timing span. A nil *Span is the disabled
// span: every method is a no-op, so instrumented code never branches on the
// tracer state.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	start  time.Duration
	argKey string
	argVal int64
	trace  TraceID
	remote uint64
}

// Context returns the span's cross-process coordinate: the trace it belongs
// to plus its wire id, ready to serialize with Traceparent. Zero for a nil
// span or a span outside any request trace, so callers can fall through to
// minting their own TraceID.
func (s *Span) Context() SpanContext {
	if s == nil || s.trace.IsZero() {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.tr.wireID(s.id)}
}

// Child opens a nested span. The child inherits the parent's trace
// membership. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	return &Span{tr: t, id: t.nextID.Add(1), parent: s.id, name: name, start: time.Since(t.epoch), trace: s.trace}
}

// ChildArg is Child with one integer argument.
func (s *Span) ChildArg(name, key string, val int64) *Span {
	c := s.Child(name)
	if c != nil {
		c.argKey, c.argVal = key, val
	}
	return c
}

// End completes the span, appending it to the tracer. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	rec := spanRecord{
		id:     s.id,
		parent: s.parent,
		name:   s.name,
		start:  s.start,
		dur:    time.Since(t.epoch) - s.start,
		argKey: s.argKey,
		argVal: s.argVal,
		trace:  s.trace,
		remote: s.remote,
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// spanTree is the reconstructed hierarchy over a snapshot of span records:
// children (indices into recs) keyed by parent id, plus the root list. A span
// whose parent was never completed (dropped, or outside a capture window) is
// promoted to a root so exports never lose it.
type spanTree struct {
	recs     []spanRecord
	children map[int64][]int
	roots    []int
}

func buildTree(recs []spanRecord) *spanTree {
	tr := &spanTree{recs: recs, children: make(map[int64][]int, len(recs))}
	byID := make(map[int64]bool, len(recs))
	for _, r := range recs {
		byID[r.id] = true
	}
	for i, r := range recs {
		if r.parent != 0 && byID[r.parent] {
			tr.children[r.parent] = append(tr.children[r.parent], i)
		} else {
			tr.roots = append(tr.roots, i)
		}
	}
	sortByStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			if recs[idx[a]].start != recs[idx[b]].start {
				return recs[idx[a]].start < recs[idx[b]].start
			}
			return recs[idx[a]].id < recs[idx[b]].id
		})
	}
	sortByStart(tr.roots)
	for _, c := range tr.children {
		sortByStart(c)
	}
	return tr
}

// snapshot copies the completed spans from mark onward.
func (t *Tracer) snapshot(mark int) []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if mark < 0 || mark > len(t.spans) {
		mark = 0
	}
	return append([]spanRecord(nil), t.spans[mark:]...)
}

// WriteChromeTrace exports every completed span as Chrome trace_event JSON —
// loadable in chrome://tracing or https://ui.perfetto.dev. Spans become
// nested B/E ("duration begin/end") pairs; each root span tree gets its own
// tid so concurrent operations (parallel ECO sessions) render as separate
// tracks instead of interleaving illegally on one stack.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return t.WriteChromeTraceSince(w, 0)
}

// WriteChromeTraceSince exports the spans completed after mark (see Mark).
func (t *Tracer) WriteChromeTraceSince(w io.Writer, mark int) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	tree := buildTree(t.snapshot(mark))
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	// DFS per root: B at span start, children in start order, E at span end.
	// ts/dur are microseconds (the trace_event unit), emitted with nanosecond
	// resolution.
	var walk func(idx int, tid int64) error
	walk = func(idx int, tid int64) error {
		r := tree.recs[idx]
		args := ""
		if r.argKey != "" {
			args = fmt.Sprintf(`,"args":{%q:%d}`, r.argKey, r.argVal)
		}
		if err := emit(`{"name":%q,"ph":"B","pid":1,"tid":%d,"ts":%.3f%s}`,
			r.name, tid, float64(r.start.Nanoseconds())/1e3, args); err != nil {
			return err
		}
		for _, c := range tree.children[r.id] {
			if err := walk(c, tid); err != nil {
				return err
			}
		}
		return emit(`{"name":%q,"ph":"E","pid":1,"tid":%d,"ts":%.3f}`,
			r.name, tid, float64((r.start+r.dur).Nanoseconds())/1e3)
	}
	for _, root := range tree.roots {
		if err := walk(root, tree.recs[root].id); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, `],"displayTimeUnit":"ms"}`)
	return err
}

// PhaseTotal is one span name's aggregate across the whole trace.
type PhaseTotal struct {
	Name  string        `json:"name"`
	Wall  time.Duration `json:"wall_ns"`
	Count int64         `json:"count"`
}

// Totals aggregates completed spans by name, heaviest first — the per-phase
// rollup run manifests embed. Only top-level time is attributed: a span's
// children overlap it, so totals are reported per name, not summed across
// nesting levels.
func (t *Tracer) Totals() []PhaseTotal {
	if t == nil {
		return nil
	}
	recs := t.snapshot(0)
	agg := map[string]*PhaseTotal{}
	order := []string{}
	for _, r := range recs {
		p := agg[r.name]
		if p == nil {
			p = &PhaseTotal{Name: r.name}
			agg[r.name] = p
			order = append(order, r.name)
		}
		p.Wall += r.dur
		p.Count++
	}
	out := make([]PhaseTotal, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Name < out[j].Name
	})
	return out
}
