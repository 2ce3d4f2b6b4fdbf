package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

// latBounds mirrors the server's latency bucket bounds for the byte-compat
// expectation below.
var latBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 13,
}

func emptyHistExposition(name string) string {
	return emptyHistExpositionBounds(name, latBounds)
}

func emptyHistExpositionBounds(name string, bounds []float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# TYPE %s histogram\n", name)
	for _, b := range bounds {
		fmt.Fprintf(&sb, "%s_bucket{le=\"%g\"} 0\n", name, b)
	}
	fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} 0\n", name)
	fmt.Fprintf(&sb, "%s_sum 0\n", name)
	fmt.Fprintf(&sb, "%s_count 0\n", name)
	return sb.String()
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(buf)
}

// TestMetricsByteCompat pins the /metrics exposition byte-for-byte on a fresh
// server: the obs-registry rewrite must render the exact same bytes the
// pre-obs hand-rolled writer produced (scrape names, label format, family
// order, %g float formatting), with later additions append-only in family
// order (insta_admission_rejects_total). The first scrape is fully
// deterministic because a request is only counted after its handler returns.
func TestMetricsByteCompat(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{})
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()

	_, body := getBody(t, srv.URL+"/metrics")
	want := "# TYPE insta_requests_total counter\n" +
		emptyHistExposition("insta_request_seconds") +
		emptyHistExposition("insta_eco_seconds") +
		"# TYPE insta_admission_rejects_total counter\n" +
		"insta_admission_rejects_total 0\n" +
		"# TYPE insta_inflight gauge\n" +
		"insta_inflight 0\n" +
		"# TYPE insta_sessions gauge\n" +
		"insta_sessions_live 0\n" +
		"insta_sessions_created_total 0\n" +
		"insta_sessions_rejected_total 0\n" +
		"insta_sessions_evicted_total 0\n" +
		"insta_commits_total 0\n" +
		"insta_rollbacks_total 0\n" +
		"insta_eco_batches_total 0\n" +
		"insta_base_epoch 0\n" +
		fmt.Sprintf("insta_base_wns_ps %g\n", mgr.BaseWNS()) +
		fmt.Sprintf("insta_base_tns_ps %g\n", mgr.BaseTNS()) +
		"# TYPE insta_topo gauge\n" +
		"insta_topo_edits_total 0\n" +
		"insta_topo_buffers_inserted_total 0\n" +
		"insta_topo_buffers_removed_total 0\n" +
		"insta_topo_commits_total 0\n" +
		"insta_topo_conflicts_total 0\n" +
		"insta_base_topo_gen 0\n" +
		emptyHistExpositionBounds("insta_topo_relevel_levels",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}) +
		"# TYPE insta_overlay gauge\n" +
		"insta_overlay_rows 0\n" +
		"insta_overlay_bytes 0\n" +
		"# TYPE insta_slack_text gauge\n" +
		"insta_slack_text_hits_total 0\n" +
		"insta_slack_text_formats_total 0\n" +
		"insta_slack_text_rebuilds_total 0\n" +
		"insta_slack_text_bytes 0\n"
	if body != want {
		t.Fatalf("fresh /metrics exposition drifted from the pre-obs bytes:\ngot:\n%s\nwant:\n%s", body, want)
	}

	// After traffic, the request counters render with the route/code label
	// format and sorted series.
	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	_, body = getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		"insta_requests_total{route=\"healthz\",code=\"200\"} 1\n",
		"insta_requests_total{route=\"metrics\",code=\"200\"} 1\n",
		"insta_request_seconds_count 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("post-traffic /metrics missing %q:\n%s", want, body)
		}
	}

	// Session memory is visible while the session is open: one row per pin
	// its preview recomputed (both transitions, K slots of two floats and a
	// startpoint each), gone when it closes.
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 97, 1.05))
	if err != nil || res.OverlayPins == 0 {
		t.Fatalf("preview recomputed %d pins, err %v", res.OverlayPins, err)
	}
	_, body = getBody(t, srv.URL+"/metrics")
	held := fmt.Sprintf("insta_overlay_rows %d\ninsta_overlay_bytes %d\n", res.OverlayPins, res.OverlayPins*2*8*20)
	if !strings.Contains(body, held) {
		t.Fatalf("/metrics with an open session missing %q:\n%s", held, body)
	}
	sess.Close()
	if _, body = getBody(t, srv.URL+"/metrics"); !strings.Contains(body, "insta_overlay_rows 0\ninsta_overlay_bytes 0\n") {
		t.Fatalf("/metrics still counts a closed session's rows:\n%s", body)
	}
}

// TestHealthzLatencyQuantiles checks the interpolated-quantile surface: after
// at least one observed request, /healthz reports ordered p50/p95/p99.
func TestHealthzLatencyQuantiles(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{})
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()

	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	_, body := getBody(t, srv.URL+"/healthz")
	var h struct {
		Latency map[string]float64 `json:"latency_s"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Latency == nil {
		t.Fatal("healthz missing latency_s after observed requests")
	}
	p50, p95, p99 := h.Latency["p50"], h.Latency["p95"], h.Latency["p99"]
	if p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles not ordered: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
}

// TestDebugTraceAndPprof exercises the opt-in debug surface: /debug/pprof/ is
// mounted and /debug/trace?dur= captures a windowed Chrome trace containing
// the engine spans recorded while the window was open, then restores the
// tracer's disabled state.
func TestDebugTraceAndPprof(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{})
	tr := obs.NewTracer()
	tr.Disable() // the trace window enables it on demand
	mgr.Engine().SetTracer(tr)
	s := server.New(mgr, "des")
	s.Observe(shell.New(shell.Options{Tracer: tr}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if code, _ := getBody(t, srv.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", code)
	}

	type result struct {
		code int
		body string
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/debug/trace?dur=500ms")
		if err != nil {
			ch <- result{}
			return
		}
		defer resp.Body.Close()
		buf, _ := io.ReadAll(resp.Body)
		ch <- result{resp.StatusCode, string(buf)}
	}()
	// Wait for the capture window to open, then generate engine spans inside
	// it.
	deadline := time.Now().Add(5 * time.Second)
	for !tr.Enabled() {
		if time.Now().After(deadline) {
			t.Fatal("trace window never enabled the tracer")
		}
		time.Sleep(time.Millisecond)
	}
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 97, 1.05)); err != nil {
		t.Fatal(err)
	}

	res := <-ch
	if res.code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", res.code)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(res.body), &f); err != nil {
		t.Fatalf("/debug/trace body is not Chrome trace JSON: %v\n%s", err, res.body)
	}
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		names[ev.Name] = true
	}
	if !names[core.KernelOverlay] {
		t.Fatalf("trace window missed the %q span; got names %v", core.KernelOverlay, names)
	}
	if tr.Enabled() {
		t.Fatal("trace window left the tracer enabled")
	}
}

// TestCommitManifestWritten checks the serving manifest satellite: with
// Options.ManifestDir set, every session commit writes one JSON manifest
// carrying the before/after figures and the session id.
func TestCommitManifestWritten(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{ManifestDir: dir, Design: "des"})
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 97, 1.10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "insta-served-commit-des-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one commit manifest, got %v (err %v)", matches, err)
	}
	buf, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if m.Tool != "insta-served-commit" || m.Design != "des" {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	if m.Extra["session"] != sess.ID {
		t.Fatalf("manifest session = %v, want %s", m.Extra["session"], sess.ID)
	}
	if m.Pins == 0 || m.Workers == 0 {
		t.Fatalf("manifest shape not filled: %+v", m)
	}
}
