package fleet_test

// Behavior tests for the pool against stub replicas: a stub implements just
// enough of the insta-served surface (create/session routes that 404 for
// sessions they don't own, /healthz with the load section) that misrouting,
// dropped sessions and admission bugs all turn into visible status codes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insta/internal/fleet"
	"insta/internal/server"
)

// stubBackend emulates one insta-served replica.
type stubBackend struct {
	mu       sync.Mutex
	sessions map[string]bool
	next     int
	created  int

	max       int          // session cap (0 = unlimited)
	gen       int          // generation marker, bumped by swaps
	baseDelay atomic.Int64 // ns sleep on GET /slacks and /gradients
	sessDelay atomic.Int64 // ns sleep on session-scoped routes
	healthErr atomic.Bool  // /healthz answers 500

	h http.Handler
}

func newStub(max, gen int) *stubBackend {
	s := &stubBackend{sessions: make(map[string]bool), max: max, gen: gen}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.healthErr.Load() {
			http.Error(w, "unhealthy", http.StatusInternalServerError)
			return
		}
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		head := s.max - n
		if s.max == 0 {
			head = 1 << 20
		}
		writeStubJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "sessions": n, "epoch": s.gen,
			"load": map[string]any{
				"live_sessions": n, "max_sessions": s.max,
				"headroom": head, "inflight": 0,
			},
		})
	})
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.max > 0 && len(s.sessions) >= s.max {
			w.Header().Set("Retry-After", "1")
			writeStubJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "too many sessions"})
			return
		}
		s.next++
		s.created++
		id := fmt.Sprintf("s%d", s.next)
		s.sessions[id] = true
		writeStubJSON(w, http.StatusCreated, map[string]any{"id": id, "epoch": s.gen})
	})
	read := func(w http.ResponseWriter, r *http.Request) {
		if d := s.baseDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		writeStubJSON(w, http.StatusOK, map[string]any{"wns": -1.0, "gen": s.gen})
	}
	mux.HandleFunc("GET /slacks", read)
	mux.HandleFunc("GET /gradients", read)
	sess := func(close bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if d := s.sessDelay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			id := r.PathValue("id")
			s.mu.Lock()
			ok := s.sessions[id]
			if ok && close {
				delete(s.sessions, id)
			}
			s.mu.Unlock()
			if !ok {
				writeStubJSON(w, http.StatusNotFound, map[string]any{"error": "no such session"})
				return
			}
			writeStubJSON(w, http.StatusOK, map[string]any{"id": id, "gen": s.gen})
		}
	}
	mux.HandleFunc("GET /session/{id}", sess(false))
	mux.HandleFunc("DELETE /session/{id}", sess(true))
	mux.HandleFunc("GET /session/{id}/slacks", sess(false))
	mux.HandleFunc("POST /session/{id}/eco", sess(false))
	mux.HandleFunc("POST /session/{id}/commit", sess(false))
	mux.HandleFunc("POST /session/{id}/rollback", sess(false))
	s.h = mux
	return s
}

func (s *stubBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

func (s *stubBackend) liveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *stubBackend) createdCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.created
}

func writeStubJSON(w http.ResponseWriter, code int, v any) {
	b, _ := json.Marshal(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

// fastOpts are pool options tuned for test wall-time: 10ms health period so
// readiness transitions land within a few tens of ms.
func fastOpts() fleet.Options {
	return fleet.Options{
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		UnreadyAfter:   2,
		DrainPoll:      5 * time.Millisecond,
		HedgeMin:       5 * time.Millisecond,
		HedgeMax:       20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	}
}

// swapServer is a replica backend on a loopback listener whose handler a test's
// Options.Swap replaces at runtime, the way a rolling swap puts a new daemon
// behind a replica; in-flight requests finish on the old handler.
type swapServer struct {
	*httptest.Server
	h atomic.Pointer[http.Handler]
}

func newSwapServer(t *testing.T, h http.Handler) *swapServer {
	s := &swapServer{}
	s.SetHandler(h)
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.h.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(s.Close)
	return s
}

func (s *swapServer) SetHandler(h http.Handler) { s.h.Store(&h) }

// newStubFleet stands up n stub replicas behind a pool and an HTTP router.
func newStubFleet(t *testing.T, n int, opt fleet.Options) (*fleet.Pool, []*stubBackend, []*swapServer, string) {
	t.Helper()
	stubs := make([]*stubBackend, n)
	locals := make([]*swapServer, n)
	urls := make([]string, n)
	for i := range stubs {
		stubs[i] = newStub(0, 1)
		locals[i] = newSwapServer(t, stubs[i])
		urls[i] = locals[i].URL
	}
	p, err := fleet.New(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)
	return p, stubs, locals, rt.URL
}

func createSession(t *testing.T, base string) string {
	t.Helper()
	fid, code := tryCreate(t, base)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return fid
}

func tryCreate(t *testing.T, base string) (string, int) {
	t.Helper()
	resp, err := http.Post(base+"/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&cr)
	return cr.ID, resp.StatusCode
}

func do(t *testing.T, method, url string, body []byte) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// grepMetric returns the exposition lines mentioning substr, for failure
// messages.
func grepMetric(met, substr string) string {
	var out []string
	for _, ln := range strings.Split(met, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionAffinity pins the tentpole routing property: every request for
// a session reaches the replica holding it. The stubs 404 for sessions they
// don't own, so a single misroute fails loudly.
func TestSessionAffinity(t *testing.T) {
	_, stubs, _, base := newStubFleet(t, 3, fastOpts())
	var fids []string
	for i := 0; i < 30; i++ {
		fid := createSession(t, base)
		if !strings.Contains(fid, ".") {
			t.Fatalf("fleet session id %q lacks the routing key", fid)
		}
		fids = append(fids, fid)
	}
	for _, fid := range fids {
		for rep := 0; rep < 3; rep++ { // repeated requests must stay home
			if code := do(t, http.MethodGet, base+"/session/"+fid, nil); code != http.StatusOK {
				t.Fatalf("session %s misrouted: status %d", fid, code)
			}
		}
		if code := do(t, http.MethodPost, base+"/session/"+fid+"/eco", []byte("{}")); code != http.StatusOK {
			t.Fatalf("eco on %s misrouted: status %d", fid, code)
		}
	}
	spread := 0
	for _, s := range stubs {
		if s.createdCount() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("30 sessions all landed on one replica — ring not spreading")
	}
	for _, fid := range fids {
		if code := do(t, http.MethodDelete, base+"/session/"+fid, nil); code != http.StatusOK {
			t.Fatalf("delete %s: status %d", fid, code)
		}
	}
}

// TestMalformedSessionID: an ID without an embedded routing key is
// unroutable and must 404 at the router, not panic or hit a random replica.
func TestMalformedSessionID(t *testing.T) {
	_, _, _, base := newStubFleet(t, 2, fastOpts())
	if code := do(t, http.MethodGet, base+"/session/nokey", nil); code != http.StatusNotFound {
		t.Fatalf("malformed id: status %d, want 404", code)
	}
}

// TestCreateAvoidsUnready: a replica that never passed a health check
// receives no sessions; creates redraw their keys past it.
func TestCreateAvoidsUnready(t *testing.T) {
	opt := fastOpts()
	stubs := []*stubBackend{newStub(0, 1), newStub(0, 1), newStub(0, 1)}
	stubs[1].healthErr.Store(true) // down before the pool ever sees it
	var urls []string
	for _, s := range stubs {
		lr := httptest.NewServer(s)
		t.Cleanup(lr.Close)
		urls = append(urls, lr.URL)
	}
	p, err := fleet.New(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	for i := 0; i < 20; i++ {
		createSession(t, rt.URL)
	}
	if n := stubs[1].createdCount(); n != 0 {
		t.Fatalf("unready replica received %d sessions", n)
	}

	// Recovery: the first passing probe re-admits it, and creates reach it
	// again (keys are redrawn until one lands there).
	stubs[1].healthErr.Store(false)
	eventually(t, 2*time.Second, "replica 1 ready", func() bool { return p.Replicas()[1].Ready() })
	eventually(t, 2*time.Second, "replica 1 receives sessions", func() bool {
		createSession(t, rt.URL)
		return stubs[1].createdCount() > 0
	})
}

// TestUnreadyAfterConsecutiveFailures: readiness needs UnreadyAfter strikes,
// then recovers on the first success; transitions are counted.
func TestUnreadyAfterConsecutiveFailures(t *testing.T) {
	p, stubs, _, base := newStubFleet(t, 2, fastOpts())
	eventually(t, time.Second, "both ready", func() bool {
		return p.Replicas()[0].Ready() && p.Replicas()[1].Ready()
	})
	stubs[0].healthErr.Store(true)
	eventually(t, 2*time.Second, "replica 0 unready", func() bool { return !p.Replicas()[0].Ready() })
	if !strings.Contains(metricsText(t, base), `fleet_unready_transitions_total{replica="0"} 1`) {
		t.Fatal("unready transition not counted")
	}
	stubs[0].healthErr.Store(false)
	eventually(t, 2*time.Second, "replica 0 re-admitted", func() bool { return p.Replicas()[0].Ready() })
}

// TestAdmissionTimeout: with a global in-flight cap of 1 and a short queue
// budget, a second session-scoped request behind a slow one is refused with
// 503 + Retry-After and counted, instead of queueing without bound.
func TestAdmissionTimeout(t *testing.T) {
	opt := fastOpts()
	opt.GlobalInflight = 1
	opt.AdmissionWait = 30 * time.Millisecond
	p, stubs, _, base := newStubFleet(t, 1, opt)
	_ = p
	fid := createSession(t, base)
	stubs[0].sessDelay.Store(int64(400 * time.Millisecond))

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(base + "/session/" + fid + "/slacks")
			if err != nil {
				codes <- -1
				return
			}
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				codes <- -2
				resp.Body.Close()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
		time.Sleep(20 * time.Millisecond) // let the first one occupy the slot
	}
	got := []int{<-codes, <-codes}
	ok200, rej := 0, 0
	for _, c := range got {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			rej++
		case -2:
			t.Fatal("admission 503 without Retry-After")
		}
	}
	if ok200 != 1 || rej != 1 {
		t.Fatalf("want one 200 and one 503, got %v", got)
	}
	if !strings.Contains(metricsText(t, base), "fleet_admission_timeouts_total 1") {
		t.Fatal("admission timeout not counted")
	}
	stubs[0].sessDelay.Store(0)
}

// TestHedgedReadCutsStraggler: with one replica sleeping 300ms on base
// reads, every read must still finish fast — the hedge fires after the
// p95-derived delay and the fast replica's answer wins.
func TestHedgedReadCutsStraggler(t *testing.T) {
	p, stubs, _, base := newStubFleet(t, 2, fastOpts())
	_ = p
	stubs[0].baseDelay.Store(int64(300 * time.Millisecond))
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if code := do(t, http.MethodGet, base+"/slacks", nil); code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, code)
		}
		if d := time.Since(t0); d > 200*time.Millisecond {
			t.Fatalf("read %d took %v — hedge did not rescue it", i, d)
		}
	}
	met := metricsText(t, base)
	if !strings.Contains(met, "fleet_hedge_fires_total") || strings.Contains(met, "fleet_hedge_fires_total 0\n") {
		t.Fatalf("no hedges fired:\n%s", grepMetric(met, "fleet_hedge"))
	}
	if strings.Contains(met, "fleet_hedge_wins_total 0\n") {
		t.Fatalf("hedges fired but never won:\n%s", grepMetric(met, "fleet_hedge"))
	}
}

// TestReadFailoverOnDeadReplica: a replica that dies between health probes
// (probe period cranked to 1h) costs a read one failed attempt, not an
// error: the router fails over to the live replica immediately.
func TestReadFailoverOnDeadReplica(t *testing.T) {
	opt := fastOpts()
	opt.HealthInterval = time.Hour // freeze the readiness view
	opt.DisableHedge = true        // isolate the failover path
	p, _, locals, base := newStubFleet(t, 2, opt)
	if !p.Replicas()[0].Healthy() || !p.Replicas()[1].Healthy() {
		t.Fatal("replicas not healthy after construction")
	}
	locals[0].Close()
	for i := 0; i < 10; i++ {
		if code := do(t, http.MethodGet, base+"/slacks", nil); code != http.StatusOK {
			t.Fatalf("read %d: status %d, want failover to live replica", i, code)
		}
	}
	if !strings.Contains(metricsText(t, base), "fleet_retries_total") {
		t.Fatal("retries family missing")
	}
	if strings.Contains(metricsText(t, base), "fleet_retries_total 0\n") {
		t.Fatal("dead-replica reads never failed over")
	}
}

// TestRollingSwapZeroDroppedSessions is the deploy story end to end: workers
// churn sessions through the router while every replica is drained and its
// handler swapped for a new generation. Zero session-scoped failures and
// all replicas on the new generation afterwards.
func TestRollingSwapZeroDroppedSessions(t *testing.T) {
	opt := fastOpts()
	var swapped atomic.Int32
	var localsRef []*swapServer
	opt.Swap = func(ctx context.Context, r *fleet.Replica) error {
		localsRef[r.ID].SetHandler(newStub(0, 2))
		swapped.Add(1)
		return nil
	}
	_, _, locals, base := newStubFleet(t, 3, opt)
	localsRef = locals

	stop := make(chan struct{})
	var drops, errs atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fid, code := tryCreate(t, base)
				if code != http.StatusCreated {
					errs.Add(1)
					continue
				}
				for op := 0; op < 3; op++ {
					if c := do(t, http.MethodGet, base+"/session/"+fid+"/slacks", nil); c != http.StatusOK {
						drops.Add(1)
					}
				}
				if c := do(t, http.MethodDelete, base+"/session/"+fid, nil); c != http.StatusOK {
					drops.Add(1)
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let load build
	rep, err := swapViaAdmin(t, base)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("rolling swap: %v", err)
	}
	if rep.Swapped != 3 || swapped.Load() != 3 {
		t.Fatalf("swapped %d/%d replicas: %+v", rep.Swapped, swapped.Load(), rep)
	}
	if d := drops.Load(); d != 0 {
		t.Fatalf("%d session-scoped requests dropped during rolling swap", d)
	}
	if e := errs.Load(); e != 0 {
		t.Fatalf("%d creates failed during rolling swap", e)
	}
	// Every replica serves the new generation now.
	for i := 0; i < 3; i++ {
		var out struct {
			Gen int `json:"gen"`
		}
		resp, err := http.Get(locals[i].URL + "/slacks")
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if out.Gen != 2 {
			t.Fatalf("replica %d still on generation %d after swap", i, out.Gen)
		}
	}
	if !strings.Contains(metricsText(t, base), "fleet_rolling_swaps_total 3") {
		t.Fatal("swap counter wrong")
	}
}

// swapViaAdmin triggers POST /admin/swap and decodes the report.
func swapViaAdmin(t *testing.T, base string) (*fleet.SwapReport, error) {
	t.Helper()
	resp, err := http.Post(base+"/admin/swap", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("swap status %d: %s", resp.StatusCode, b)
	}
	var rep fleet.SwapReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// TestRouterHealthzAggregation: the router's /healthz reflects per-replica
// state and degrades when a replica drops out.
func TestRouterHealthzAggregation(t *testing.T) {
	p, stubs, _, base := newStubFleet(t, 2, fastOpts())
	var hz struct {
		Status   string `json:"status"`
		Ready    int    `json:"ready"`
		Replicas []struct {
			State string `json:"state"`
		} `json:"replicas"`
	}
	getHZ := func() {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
	}
	getHZ()
	if hz.Status != "ok" || hz.Ready != 2 || len(hz.Replicas) != 2 {
		t.Fatalf("healthy fleet healthz wrong: %+v", hz)
	}
	stubs[0].healthErr.Store(true)
	eventually(t, 2*time.Second, "degraded", func() bool { return !p.Replicas()[0].Ready() })
	getHZ()
	if hz.Status != "degraded" || hz.Ready != 1 {
		t.Fatalf("degraded fleet healthz wrong: %+v", hz)
	}
}

// TestRouterDrainGate: once the router drains (SIGTERM path), new work is
// refused with 503 + Retry-After while probes keep answering.
func TestRouterDrainGate(t *testing.T) {
	pool, _, _, base := newStubFleet(t, 1, fastOpts())
	pool.SetDraining(true)
	resp, err := http.Post(base+"/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining router create: status %d, Retry-After %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := do(t, http.MethodGet, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("draining router healthz: %d", code)
	}
}

// TestRouterRefusesOversizedBody: the router buffers a session request's body
// so retries can replay it, and used to buffer up to a cap of its own twice
// the daemon's before the daemon refused. One constant now: a body of
// server.MaxBodyBytes is forwarded, one byte more is a 413 from the router
// that no replica ever sees.
func TestRouterRefusesOversizedBody(t *testing.T) {
	_, _, _, base := newStubFleet(t, 1, fastOpts())
	fid := createSession(t, base)
	seen := func() (n int) {
		for _, ln := range strings.Split(metricsText(t, base), "\n") {
			fmt.Sscanf(ln, `fleet_replica_requests_total{replica="0"} %d`, &n)
		}
		return n
	}
	before := seen()
	if code := do(t, http.MethodPost, base+"/session/"+fid+"/eco", make([]byte, server.MaxBodyBytes)); code != http.StatusOK {
		t.Fatalf("body at the cap: status %d, want it forwarded", code)
	}
	if got := seen(); got != before+1 {
		t.Fatalf("body at the cap reached the replica %d times, want 1", got-before)
	}
	if code := do(t, http.MethodPost, base+"/session/"+fid+"/eco", make([]byte, server.MaxBodyBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d, want 413", code)
	}
	if got := seen(); got != before+1 {
		t.Fatal("the oversized body was forwarded to the replica")
	}
}

// TestForwardBodyNotReusedWhileInFlight (run -count=20 under -race by ci.sh):
// the router buffers a request body in a pooled buffer, and the transport may
// still be sending it when the round trip has returned, because the replica
// answered without reading the request. The buffer used to go back to the
// pool as forward returned, so the next request's body was copied into it
// under the transport's hands, which is what the race detector is here for.
// 200 back-to-back requests with 320 KiB bodies, neighbours distinct, to a
// replica that answers every other one unread and reads the ones between:
// each of those is, byte for byte, what its client sent.
func TestForwardBodyNotReusedWhileInFlight(t *testing.T) {
	const n, size = 200, 320 << 10
	bodies := make([][]byte, 8) // built beforehand: the requests must follow each other closely
	for k := range bodies {
		bodies[k] = make([]byte, size)
		for off := 0; off < size; off += 8 {
			binary.LittleEndian.PutUint64(bodies[k][off:], uint64(k)<<32|uint64(off))
		}
	}
	stub := newStub(0, 1)
	var seq atomic.Int32
	lr := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/eco") {
			stub.ServeHTTP(w, r)
			return
		}
		// One client, one request at a time: this is request i. With a body
		// this size unread, the server answers without draining it first and
		// closes the connection after.
		if i := int(seq.Add(1)) - 1; i%2 == 1 {
			got, err := io.ReadAll(r.Body)
			if err != nil || !bytes.Equal(got, bodies[i%len(bodies)]) {
				t.Errorf("request %d: the replica did not receive the %d bytes its client sent (read %d, err %v)", i, size, len(got), err)
			}
		}
		_, _ = w.Write([]byte("ok\n"))
	}))
	t.Cleanup(lr.Close)
	p, err := fleet.New([]string{lr.URL}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	fid := createSession(t, rt.URL)
	for i := 0; i < n; i++ {
		if code := do(t, http.MethodPost, rt.URL+"/session/"+fid+"/eco", bodies[i%len(bodies)]); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := int(seq.Load()); got != n {
		t.Fatalf("the replica saw %d requests, want %d", got, n)
	}
}
