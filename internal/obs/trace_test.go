package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceEvent mirrors the Chrome trace_event fields the export emits.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// span builds a toy nested trace: a root with two phases, one of which has
// per-level children — the same shape a spanned engine run produces.
func buildToyTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := NewTracer()
	run := tr.Start("run")
	fwd := run.Child("forward")
	for l := 0; l < 3; l++ {
		lv := fwd.ChildArg("level", "level", int64(l))
		lv.End()
	}
	fwd.End()
	slack := run.Child("slack")
	slack.End()
	run.End()
	return tr
}

// TestChromeTraceWellFormed is the golden export test: the emitted JSON must
// parse, every event must carry valid ph/ts fields, and the B/E pairs must
// nest properly per tid (LIFO by name, monotonically non-decreasing ts).
func TestChromeTraceWellFormed(t *testing.T) {
	tr := buildToyTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 6 spans -> 12 events.
	if len(f.TraceEvents) != 12 {
		t.Fatalf("want 12 events (6 spans as B/E pairs), got %d", len(f.TraceEvents))
	}
	stacks := map[int64][]string{} // tid -> open span names
	lastTs := map[int64]float64{}
	levelArgs := 0
	for i, ev := range f.TraceEvents {
		if ev.Ph != "B" && ev.Ph != "E" {
			t.Fatalf("event %d: bad ph %q", i, ev.Ph)
		}
		if ev.Ts < 0 {
			t.Fatalf("event %d: negative ts %g", i, ev.Ts)
		}
		if ev.Ts < lastTs[ev.Tid] {
			t.Fatalf("event %d (%s %s): ts %g goes backwards on tid %d (last %g)",
				i, ev.Ph, ev.Name, ev.Ts, ev.Tid, lastTs[ev.Tid])
		}
		lastTs[ev.Tid] = ev.Ts
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(stacks[ev.Tid], ev.Name)
			if v, ok := ev.Args["level"]; ok {
				levelArgs++
				if _, isNum := v.(float64); !isNum {
					t.Fatalf("event %d: level arg is %T, want number", i, v)
				}
			}
		case "E":
			st := stacks[ev.Tid]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q with empty stack on tid %d", i, ev.Name, ev.Tid)
			}
			if top := st[len(st)-1]; top != ev.Name {
				t.Fatalf("event %d: E %q does not match open span %q (improper nesting)", i, ev.Name, top)
			}
			stacks[ev.Tid] = st[:len(st)-1]
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("tid %d: %d unclosed spans: %v", tid, len(st), st)
		}
	}
	if levelArgs != 3 {
		t.Fatalf("want 3 level args, got %d", levelArgs)
	}
}

// TestChromeTraceConcurrentRootsSeparateTids pins the track assignment:
// concurrent root spans must land on distinct tids so their B/E pairs never
// interleave on one stack.
func TestChromeTraceConcurrentRootsSeparateTids(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("eco-a")
	b := tr.Start("eco-b") // overlaps a
	b.End()
	a.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int64{}
	for _, ev := range f.TraceEvents {
		tids[ev.Name] = ev.Tid
	}
	if tids["eco-a"] == tids["eco-b"] {
		t.Fatalf("overlapping roots share tid %d", tids["eco-a"])
	}
}

// TestDisabledTracerZeroAllocs is the overhead contract: a nil tracer and a
// disabled tracer must allocate nothing per span — the Start/End pairs
// compiled into the engine kernels are free when tracing is off.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		sp := nilTr.StartArg("forward", "levels", 12)
		c := sp.ChildArg("level", "level", 3)
		c.End()
		sp.End()
	}); n != 0 {
		t.Fatalf("nil tracer: %v allocs per span pair, want 0", n)
	}

	tr := NewTracer()
	tr.Disable()
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("forward")
		c := sp.Child("level")
		c.End()
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled tracer: %v allocs per span pair, want 0", n)
	}
	if tr.NumSpans() != 0 {
		t.Fatalf("disabled tracer recorded %d spans", tr.NumSpans())
	}
}

func TestTracerMarkWindows(t *testing.T) {
	tr := NewTracer()
	tr.Start("before").End()
	mark := tr.Mark()
	tr.Start("after").End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTraceSince(&buf, mark); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Contains(s, "before") || !strings.Contains(s, "after") {
		t.Fatalf("windowed export wrong:\n%s", s)
	}
}

func TestTracerTotalsAndTree(t *testing.T) {
	tr := buildToyTrace(t)
	totals := tr.Totals()
	byName := map[string]PhaseTotal{}
	for _, pt := range totals {
		byName[pt.Name] = pt
	}
	if byName["level"].Count != 3 {
		t.Fatalf("level count = %d, want 3", byName["level"].Count)
	}
	if byName["run"].Count != 1 || byName["forward"].Count != 1 {
		t.Fatalf("unexpected totals: %+v", totals)
	}
	if byName["slack"].Count != 1 || len(totals) != 4 {
		t.Fatalf("the toy tree's four span names folded into %+v", totals)
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("sleep")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	totals := tr.Totals()
	if len(totals) != 1 || totals[0].Wall < time.Millisecond {
		t.Fatalf("sleep span too short: %+v", totals)
	}
}
