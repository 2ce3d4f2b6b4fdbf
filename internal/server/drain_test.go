package server_test

// SIGTERM-drain coverage: the behavior cmd/insta-served (and the fleet's
// rolling snapshot-swap) rely on was only ever exercised by hand. These tests
// pin the three contractual pieces of Daemon.Close against a live daemon: an
// in-flight request is allowed to complete before it returns, new connections
// are refused afterwards, and a committed session survives the restart via
// the snapshot path.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"insta/internal/core"
	"insta/internal/server"
)

// getJSON decodes url's JSON response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: decode: %v", url, err)
	}
}

// startHTTP serves the handler on a real loopback listener (httptest.Server
// hides the *http.Server Shutdown needs).
func startHTTP(t *testing.T, h http.Handler) (*http.Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(lis)
	return srv, "http://" + lis.Addr().String()
}

// TestDrainInFlightCompletes holds the base engine's write lock so a /slacks
// read is pinned mid-handler, then drains: Drain must wait for that request
// (not cut the connection), the request must finish 200, and once Drain
// returns the listener must refuse new connections.
func TestDrainInFlightCompletes(t *testing.T) {
	d, _, url := bootDaemon(t)
	mgr := d.Manager()

	// Pin the base write lock: the in-flight read below blocks on RLock until
	// we release it, giving a deterministic "request still running" window.
	entered := make(chan struct{})
	release := make(chan struct{})
	exclDone := make(chan struct{})
	go func() {
		server.HoldBaseWriteLock(mgr, func() {
			close(entered)
			<-release
		})
		close(exclDone)
	}()
	<-entered

	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Get(url + "/slacks")
		if err != nil {
			inflight <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- &net.AddrError{Err: resp.Status, Addr: url}
			return
		}
		inflight <- nil
	}()
	// Let the request reach the handler and park on the read lock.
	time.Sleep(100 * time.Millisecond)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- d.Close(ctx)
	}()

	// Drain must not return while the request is still blocked inside its
	// handler.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a request still in flight", err)
	case <-time.After(200 * time.Millisecond):
	}

	close(release)
	<-exclDone
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request did not complete cleanly: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain did not complete after the in-flight request: %v", err)
	}

	// The listener is closed: new requests are refused at the connection.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("post-drain request succeeded; want connection refused")
	}
}

// TestDrainSavesCommittedSnapshot commits an ECO through a session, drains,
// and boots a fresh engine from the snapshot the drain saved: the committed
// figures must survive the restart bit-identically.
func TestDrainSavesCommittedSnapshot(t *testing.T) {
	d, bt, _ := bootDaemon(t, "-snapshot-dir", t.TempDir())
	mgr := d.Manager()

	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 97, 1.25)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	wantWNS, wantTNS := mgr.BaseWNS(), mgr.BaseTNS()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if mgr.NumSessions() != 0 {
		t.Fatalf("drain left %d live sessions", mgr.NumSessions())
	}

	snp, err := bt.Cache.Load(bt.Key)
	if err != nil || snp == nil {
		t.Fatalf("drain did not persist the snapshot: %v/%v", snp, err)
	}
	e2, err := core.NewEngineFromState(snp.State, core.Options{TopK: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.Run()
	if e2.WNS() != wantWNS || e2.TNS() != wantTNS {
		t.Fatalf("restart from drain snapshot diverged: got WNS/TNS %v/%v, committed %v/%v",
			e2.WNS(), e2.TNS(), wantWNS, wantTNS)
	}
}

// TestHealthzLoadSection pins the append-only live-load fields the fleet
// router keys admission and hedging off: live session count, the max-sessions
// cap, remaining headroom, and the in-flight work-request count (which must
// exclude the /healthz probe itself).
func TestHealthzLoadSection(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{MaxSessions: 5})
	httpSrv, url := startHTTP(t, server.New(mgr, "des").Handler())
	defer httpSrv.Close()

	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var h struct {
		Sessions int `json:"sessions"`
		Load     struct {
			Live     int `json:"live_sessions"`
			Max      int `json:"max_sessions"`
			Headroom int `json:"headroom"`
			Inflight int `json:"inflight"`
		} `json:"load"`
	}
	getJSON(t, url+"/healthz", &h)
	if h.Sessions != 1 || h.Load.Live != 1 || h.Load.Max != 5 || h.Load.Headroom != 4 {
		t.Fatalf("healthz load section wrong: %+v", h)
	}
	if h.Load.Inflight != 0 {
		t.Fatalf("healthz probe counted itself as in-flight load: %+v", h.Load)
	}
}

// TestAdmissionRejectRetryAfter drives session creates past the cap: the
// rejection must be a 503 carrying a Retry-After hint and must show up in the
// insta_admission_rejects_total counter, so fleet retry/backoff can tell
// "full" from "broken".
func TestAdmissionRejectRetryAfter(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 8, 2, server.Options{MaxSessions: 1})
	httpSrv, url := startHTTP(t, server.New(mgr, "des").Handler())
	defer httpSrv.Close()

	code, _ := postJSON(t, http.DefaultClient, url+"/session", nil)
	if code != http.StatusCreated {
		t.Fatalf("first create: %d", code)
	}
	resp, err := http.Post(url+"/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create: got %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("over-cap 503 carries no Retry-After header")
	}
	_, body := getBody(t, url+"/metrics")
	if want := "insta_admission_rejects_total 1\n"; !strings.Contains(body, want) {
		t.Fatalf("metrics missing %q:\n%s", want, body)
	}
}
