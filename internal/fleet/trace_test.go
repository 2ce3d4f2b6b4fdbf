package fleet_test

// Distributed-tracing tests for the router (DESIGN.md §15): trace identity
// minted or joined at the front door, propagated to every downstream attempt
// (including both sides of a hedge race), recorded in the flight recorder,
// and exported as one stitched Chrome trace.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/fleet"
	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

// spansNamed filters a trace snapshot by span name.
func spansNamed(spans []obs.SpanView, name string) []obs.SpanView {
	var out []obs.SpanView
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestHedgeSharesTraceDistinctSpans pins the hedge-race tracing contract: the
// winning and losing attempts of one hedged base read carry the SAME trace id
// with DISTINCT span ids, both parented to the request's root span, and the
// stitched export contains both. Run under -race in ci.sh step 4: the loser's
// span ends on a goroutine that can outlive the request handler.
func TestHedgeSharesTraceDistinctSpans(t *testing.T) {
	tr := obs.NewTracer()
	opt := fastOpts()
	opt.Shell = shell.New(shell.Options{Tracer: tr})
	_, stubs, _, base := newStubFleet(t, 2, opt)
	// Both replicas slow on base reads: the hedge fires at HedgeMin (5ms) and
	// both attempts run to completion, so both spans land.
	for _, s := range stubs {
		s.baseDelay.Store(int64(30 * time.Millisecond))
	}

	resp, err := http.Get(base + "/slacks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged read: status %d", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("router did not echo a Traceparent, got %q", resp.Header.Get("Traceparent"))
	}

	// The loser finishes after the response is written; wait for its span.
	var attempts []obs.SpanView
	eventually(t, 2*time.Second, "both hedge attempt spans to land", func() bool {
		attempts = spansNamed(tr.TraceSpans(sc.Trace), "read-attempt")
		return len(attempts) == 2
	})
	if attempts[0].Span == attempts[1].Span {
		t.Fatalf("hedge attempts must have distinct span ids, both %016x", attempts[0].Span)
	}
	if attempts[0].Trace != sc.Trace || attempts[1].Trace != sc.Trace {
		t.Fatalf("attempts carry traces %s / %s, want the request's %s",
			attempts[0].Trace, attempts[1].Trace, sc.Trace)
	}
	roots := spansNamed(tr.TraceSpans(sc.Trace), "route-slacks")
	if len(roots) != 1 {
		t.Fatalf("want one root span, got %d", len(roots))
	}
	for _, a := range attempts {
		if a.Parent != roots[0].Span {
			t.Fatalf("attempt parent %016x, want root %016x", a.Parent, roots[0].Span)
		}
	}
	if attempts[0].ArgKey != "replica" || attempts[1].ArgKey != "replica" ||
		attempts[0].ArgVal == attempts[1].ArgVal {
		t.Fatalf("attempts should target distinct replicas, got %s=%d and %s=%d",
			attempts[0].ArgKey, attempts[0].ArgVal, attempts[1].ArgKey, attempts[1].ArgVal)
	}

	// The stitched export endpoint serves the same tree as Chrome trace JSON.
	sr, err := http.Get(base + "/debug/trace/" + sc.Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&f); err != nil {
		t.Fatalf("stitched export is not Chrome trace JSON: %v", err)
	}
	gotAttempts := 0
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == "read-attempt" {
			gotAttempts++
		}
	}
	if gotAttempts != 2 {
		t.Fatalf("stitched export has %d read-attempt events, want 2", gotAttempts)
	}

	met := metricsText(t, base)
	if !strings.Contains(met, "fleet_hedge_fires_total 1") {
		t.Fatalf("hedge should have fired once: %q", grepMetric(met, "fleet_hedge_fires_total"))
	}
}

// traceSink is a minimal replica that records the Traceparent header of every
// request it serves.
type traceSink struct {
	mu  sync.Mutex
	got []string
}

func (ts *traceSink) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeStubJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "sessions": 0, "epoch": 1,
			"load": map[string]any{"live_sessions": 0, "max_sessions": 0, "headroom": 1 << 20, "inflight": 0},
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		ts.mu.Lock()
		ts.got = append(ts.got, r.Header.Get("Traceparent"))
		ts.mu.Unlock()
		if r.Method == http.MethodPost && r.URL.Path == "/session" {
			writeStubJSON(w, http.StatusCreated, map[string]any{"id": "s1", "epoch": 1})
			return
		}
		writeStubJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return mux
}

func (ts *traceSink) received() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]string(nil), ts.got...)
}

// TestTraceIDsPropagateWithoutTracer pins ids-only mode: with no router
// tracer, a caller's trace id still reaches the replica and the echo, so
// cross-process correlation works even with spans off.
func TestTraceIDsPropagateWithoutTracer(t *testing.T) {
	sink := &traceSink{}
	lr := httptest.NewServer(sink.handler())
	t.Cleanup(lr.Close)
	opt := fastOpts()
	opt.DisableHedge = true
	p, err := fleet.New([]string{lr.URL}, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	caller := obs.SpanContext{Trace: obs.NewTraceID(), Span: 0x1234}
	req, _ := http.NewRequest(http.MethodGet, rt.URL+"/slacks", nil)
	req.Header.Set("Traceparent", obs.Traceparent(caller))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echo, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || echo.Trace != caller.Trace {
		t.Fatalf("echo %q should carry the caller's trace %s", resp.Header.Get("Traceparent"), caller.Trace)
	}
	var down obs.SpanContext
	for _, tp := range sink.received() {
		if sc, ok := obs.ParseTraceparent(tp); ok {
			down = sc
		}
	}
	if down.Trace != caller.Trace {
		t.Fatalf("replica received trace %s, want the caller's %s", down.Trace, caller.Trace)
	}
	// Without a header, the router mints: a fresh request gets a nonzero id.
	r2, err := http.Get(rt.URL + "/slacks")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	minted, ok := obs.ParseTraceparent(r2.Header.Get("Traceparent"))
	if !ok || minted.Trace.IsZero() || minted.Trace == caller.Trace {
		t.Fatalf("router should mint a fresh trace, got %q", r2.Header.Get("Traceparent"))
	}
}

// TestFleetObsEndpoints covers the router's observability surface over stubs:
// the flight recorder retains routed requests with shard and replica facts,
// /debug/fleet aggregates a live scrape with skew and SLO, /healthz carries
// the slo section, and /metrics renders the new gauges.
func TestFleetObsEndpoints(t *testing.T) {
	opt := fastOpts()
	opt.Shell = shell.New(shell.Options{Tracer: obs.NewTracer()})
	opt.DisableHedge = true
	_, _, _, base := newStubFleet(t, 2, opt)

	fid := createSession(t, base)
	if code := do(t, http.MethodGet, base+"/session/"+fid+"/slacks", nil); code != http.StatusOK {
		t.Fatalf("session read: status %d", code)
	}
	if code := do(t, http.MethodGet, base+"/slacks", nil); code != http.StatusOK {
		t.Fatalf("base read: status %d", code)
	}

	var dump struct {
		Size   int `json:"size"`
		Total  int `json:"total"`
		Recent []struct {
			Route   string `json:"route"`
			Shard   string `json:"shard"`
			Replica int32  `json:"replica"`
			Status  int32  `json:"status"`
			Trace   string `json:"trace"`
			TotalNs int64  `json:"total_ns"`
		} `json:"recent"`
	}
	resp, err := http.Get(base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dump.Total != 3 || len(dump.Recent) != 3 {
		t.Fatalf("flight recorder total = %d (%d recent), want 3 routed requests", dump.Total, len(dump.Recent))
	}
	byRoute := map[string]int{}
	for _, rec := range dump.Recent {
		byRoute[rec.Route]++
		if rec.Status != 200 && rec.Status != 201 {
			t.Fatalf("record %+v not ok", rec)
		}
		if len(rec.Trace) != 32 {
			t.Fatalf("record trace %q not a 32-hex id", rec.Trace)
		}
	}
	if byRoute["session-create"] != 1 || byRoute["session-slacks"] != 1 || byRoute["slacks"] != 1 {
		t.Fatalf("recorded routes %v", byRoute)
	}
	for _, rec := range dump.Recent {
		if rec.Route == "session-slacks" && (rec.Shard == "" || rec.Replica < 0) {
			t.Fatalf("session-scoped record should carry shard+replica: %+v", rec)
		}
	}

	var fd struct {
		Replicas []struct {
			ID  int    `json:"id"`
			Err string `json:"err"`
		} `json:"replicas"`
		Scraped int `json:"scraped"`
		Skew    struct {
			SessionsMax float64 `json:"sessions_max"`
		} `json:"skew"`
		SLO []struct {
			Window string `json:"window"`
		} `json:"slo"`
		FR struct {
			Size int `json:"size"`
		} `json:"flight_recorder"`
	}
	fr, err := http.Get(base + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(fr.Body).Decode(&fd); err != nil {
		t.Fatal(err)
	}
	fr.Body.Close()
	if len(fd.Replicas) != 2 || fd.Scraped != 2 {
		t.Fatalf("/debug/fleet scraped %d of %d replicas", fd.Scraped, len(fd.Replicas))
	}
	if fd.Skew.SessionsMax < 1 {
		t.Fatalf("session skew should see the one live session: %+v", fd.Skew)
	}
	if len(fd.SLO) != 2 || fd.FR.Size == 0 {
		t.Fatalf("/debug/fleet missing slo/flight_recorder sections: %+v", fd)
	}

	var hz struct {
		SLO []struct {
			Window string `json:"window"`
			Total  uint64 `json:"total"`
		} `json:"slo"`
	}
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if len(hz.SLO) != 2 || hz.SLO[0].Total != 3 {
		t.Fatalf("healthz slo = %+v, want both windows counting 3 requests", hz.SLO)
	}

	met := metricsText(t, base)
	for _, want := range []string{"fleet_inflight 0", "fleet_admission_waiting 0", "fleet_slo_burn_rate_5m", "fleet_slo_burn_rate_1h", "fleet_slo_objective_seconds"} {
		if !strings.Contains(met, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// delayReads wraps a replica handler, slowing GET /slacks so the router's
// hedge fires against real servers.
func delayReads(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/slacks" {
			time.Sleep(d)
		}
		h.ServeHTTP(w, r)
	})
}

// TestStitchedFleetTrace is the tentpole's acceptance test: one request
// through the router, hedged across two REAL replicas, yields one stitched
// Chrome trace in which the router's root and attempt spans and both
// replicas' serve spans share a single trace id and connect into one tree.
func TestStitchedFleetTrace(t *testing.T) {
	spec, err := bench.BlockSpec("des")
	if err != nil {
		if spec, err = bench.IWLSSpec("des"); err != nil {
			t.Fatalf("unknown preset: %v", err)
		}
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	routerTr := obs.NewTracer()
	var urls []string
	var repTracers []*obs.Tracer
	for i := 0; i < 2; i++ {
		e, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: 2, Tau: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		mgr := server.NewManager(e, s.Ref, server.Options{MaxSessions: 16})
		srv := server.New(mgr, "des")
		repTr := obs.NewTracer()
		srv.Observe(shell.New(shell.Options{Tracer: repTr, FlightSize: -1}))
		repTracers = append(repTracers, repTr)
		lr := httptest.NewServer(delayReads(srv.Handler(), 30*time.Millisecond))
		t.Cleanup(lr.Close)
		urls = append(urls, lr.URL)
	}
	opt := fastOpts()
	opt.Shell = shell.New(shell.Options{Tracer: routerTr})
	p, err := fleet.New(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	for i, tr := range repTracers {
		p.AddTraceStream(fmt.Sprintf("replica-%d", i), tr)
	}
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	resp, err := http.Get(rt.URL + "/slacks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged read: status %d", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatal("no Traceparent echo")
	}

	streams := append([]obs.StitchStream{{Name: "router", Tracer: routerTr}},
		obs.StitchStream{Name: "replica-0", Tracer: repTracers[0]},
		obs.StitchStream{Name: "replica-1", Tracer: repTracers[1]})
	var stitched []obs.StitchedSpan
	eventually(t, 5*time.Second, "both serve spans and both attempts to land", func() bool {
		stitched = obs.CollectTrace(sc.Trace, streams...)
		serves, atts := 0, 0
		for _, sp := range stitched {
			switch sp.Name {
			case "serve-slacks":
				serves++
			case "read-attempt":
				atts++
			}
		}
		return serves == 2 && atts == 2
	})

	// One connected tree: every serve span's parent is one of the router's
	// attempt spans, and the attempts parent to the single root.
	attemptIDs := map[uint64]bool{}
	var rootID uint64
	for _, sp := range stitched {
		switch sp.Name {
		case "read-attempt":
			attemptIDs[sp.Span] = true
		case "route-slacks":
			rootID = sp.Span
		}
		if sp.Trace != sc.Trace {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.Trace, sc.Trace)
		}
	}
	if rootID == 0 || len(attemptIDs) != 2 {
		t.Fatalf("want one root and two attempts, got root=%016x attempts=%d", rootID, len(attemptIDs))
	}
	for _, sp := range stitched {
		switch sp.Name {
		case "serve-slacks":
			if !attemptIDs[sp.Parent] {
				t.Fatalf("replica serve span parents to %016x, not a router attempt", sp.Parent)
			}
		case "read-attempt":
			if sp.Parent != rootID {
				t.Fatalf("attempt parents to %016x, want root %016x", sp.Parent, rootID)
			}
		}
	}

	// The router endpoint exports the same tree as one Chrome trace file with
	// three named process streams.
	er, err := http.Get(rt.URL + "/debug/trace/" + sc.Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(er.Body).Decode(&f); err != nil {
		t.Fatalf("stitched endpoint export: %v", err)
	}
	pids := map[int]bool{}
	serves := 0
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
			if ev.Name == "serve-slacks" {
				serves++
			}
		}
	}
	if len(pids) != 3 || serves != 2 {
		t.Fatalf("stitched file: %d process streams (want 3), %d serve spans (want 2)", len(pids), serves)
	}
}
