package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

// newObsServer stands up a server inside the full request shell: enabled
// tracer, flight recorder, SLO tracker, debug surface.
func newObsServer(t *testing.T) (*httptest.Server, *server.Server, *obs.Tracer, *obs.FlightRecorder, *obs.SLOTracker) {
	t.Helper()
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{})
	s := server.New(mgr, "des")
	tr := obs.NewTracer()
	sh := shell.New(shell.Options{Tracer: tr, FlightSize: 64, FlightPin: time.Hour, SLOObjective: 100 * time.Millisecond, SLOBudget: 0.01})
	s.Observe(sh)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s, tr, sh.Flight, sh.SLO
}

// TestServeJoinsRemoteTrace pins the replica half of distributed tracing: a
// request arriving with a traceparent header serves under that trace, echoes
// the context back, and its serve span parents to the remote span id.
func TestServeJoinsRemoteTrace(t *testing.T) {
	srv, _, tr, fr, _ := newObsServer(t)

	remote := obs.SpanContext{Trace: obs.NewTraceID(), Span: 0xabcdef01}
	req, _ := http.NewRequest("GET", srv.URL+"/slacks", nil)
	req.Header.Set("Traceparent", obs.Traceparent(remote))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	echo := resp.Header.Get("Traceparent")
	sc, ok := obs.ParseTraceparent(echo)
	if !ok || sc.Trace != remote.Trace {
		t.Fatalf("Traceparent echo %q should carry the caller's trace %s", echo, remote.Trace)
	}
	if sc.Span == remote.Span {
		t.Fatal("echoed span id should be the serve span, not the caller's")
	}

	spans := tr.TraceSpans(remote.Trace)
	if len(spans) != 1 || spans[0].Name != "serve-slacks" || spans[0].Parent != remote.Span {
		t.Fatalf("serve span should join the remote trace under the remote parent, got %+v", spans)
	}

	// The flight recorder saw the request under the same trace.
	recs := fr.Snapshot()
	if len(recs) != 1 || recs[0].Trace != remote.Trace || recs[0].Route != "slacks" || recs[0].Status != 200 {
		t.Fatalf("flight record = %+v, want the traced slacks request", recs)
	}
}

// TestServeMintsTraceWithoutHeader pins that bare requests still get identity:
// the recorder path mints a TraceID and echoes it, so every request is
// addressable even when no router fronted it.
func TestServeMintsTraceWithoutHeader(t *testing.T) {
	srv, _, _, fr, _ := newObsServer(t)
	resp, err := http.Get(srv.URL + "/slacks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sc, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("bare request should still get a minted Traceparent, got %q", resp.Header.Get("Traceparent"))
	}
	recs := fr.Snapshot()
	if len(recs) != 1 || recs[0].Trace != sc.Trace {
		t.Fatalf("flight record trace %v should match the echoed %v", recs, sc.Trace)
	}
	// Probe routes stay unrecorded and unechoed.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.Header.Get("Traceparent") != "" {
		t.Fatal("/healthz must not mint trace ids")
	}
	if got := fr.Total(); got != 1 {
		t.Fatalf("probe routes must not hit the recorder, total = %d", got)
	}
}

// TestFlightRecorderEndpointAndHealthzSLO exercises the dump endpoint and the
// healthz slo/flight_recorder sections end to end, including error pinning.
func TestFlightRecorderEndpointAndHealthzSLO(t *testing.T) {
	srv, _, _, _, _ := newObsServer(t)

	// One OK read + one 404 session get (an error the recorder pins: 404 is
	// not >= 500, so actually NOT pinned — only recorded).
	if r, err := http.Get(srv.URL + "/slacks"); err == nil {
		r.Body.Close()
	}
	r2, err := http.Post(srv.URL+"/session/nope/eco", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()

	resp, err := http.Get(srv.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Size   int `json:"size"`
		Total  int `json:"total"`
		Recent []struct {
			Route  string `json:"route"`
			Status int    `json:"status"`
			Trace  string `json:"trace"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Size != 64 || dump.Total != 2 || len(dump.Recent) != 2 {
		t.Fatalf("dump = %+v, want 2 records in a 64-ring", dump)
	}
	if dump.Recent[0].Route != "slacks" || dump.Recent[1].Route != "eco" || dump.Recent[1].Status != 404 {
		t.Fatalf("recent = %+v", dump.Recent)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health struct {
		SLO []struct {
			Window string  `json:"window"`
			Total  uint64  `json:"total"`
			Burn   float64 `json:"burn_rate"`
		} `json:"slo"`
		FR struct {
			Size  int `json:"size"`
			Total int `json:"total"`
		} `json:"flight_recorder"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.SLO) != 2 || health.SLO[0].Window != "5m" || health.SLO[1].Window != "1h" {
		t.Fatalf("healthz slo = %+v, want 5m + 1h windows", health.SLO)
	}
	if health.SLO[0].Total != 2 {
		t.Fatalf("slo should have counted both work requests, got %+v", health.SLO[0])
	}
	if health.FR.Size != 64 || health.FR.Total != 2 {
		t.Fatalf("healthz flight_recorder = %+v", health.FR)
	}

	// The SLO gauges render on /metrics.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	mb, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"insta_slo_burn_rate_5m", "insta_slo_burn_rate_1h", "insta_slo_objective_seconds 0.1", "insta_inflight"} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFlightRecorderPinsServerError pins the anomaly path through the real
// HTTP stack: a 503 (admission cap) captures a pinned record with the
// request's span tree.
func TestFlightRecorderPinsServerError(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{MaxSessions: 1})
	s := server.New(mgr, "des")
	sh := shell.New(shell.Options{Tracer: obs.NewTracer(), FlightSize: 16, FlightPin: time.Hour})
	s.Observe(sh)
	fr := sh.Flight
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if r, err := http.Post(srv.URL+"/session", "", nil); err == nil {
		r.Body.Close()
	}
	r2, err := http.Post(srv.URL+"/session", "", nil) // cap hit -> 503
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second create = %d, want 503", r2.StatusCode)
	}

	pinned := fr.Pinned()
	if len(pinned) != 1 || pinned[0].Rec.Status != 503 || pinned[0].Rec.Route != "session-create" {
		t.Fatalf("pinned = %+v, want the 503 create", pinned)
	}
	if len(pinned[0].Spans) == 0 || pinned[0].Spans[0].Name != "serve-session-create" {
		t.Fatalf("pinned anomaly should carry its span tree, got %+v", pinned[0].Spans)
	}
}

// TestInflightGaugeAndLiveSessions pins the satellite gauges: insta_inflight
// returns to zero at rest and insta_sessions_live tracks create/delete
// through the maintained gauge.
func TestInflightGaugeAndLiveSessions(t *testing.T) {
	srv, s, _, _, _ := newObsServer(t)
	if s.Inflight() != 0 {
		t.Fatalf("Inflight at rest = %d", s.Inflight())
	}
	r, err := http.Post(srv.URL+"/session", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if n := s.Manager().NumSessions(); n != 1 {
		t.Fatalf("NumSessions = %d after create, want 1", n)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/session/"+created.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if n := s.Manager().NumSessions(); n != 0 {
		t.Fatalf("NumSessions = %d after delete, want 0", n)
	}
	if s.Inflight() != 0 {
		t.Fatalf("Inflight after traffic = %d, want 0", s.Inflight())
	}
}
