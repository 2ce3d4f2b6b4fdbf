package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/sched"
	"insta/internal/server"
)

// testSetup caches one built design per preset across tests in this package —
// generation plus reference signoff dominates test wall time.
var (
	setupMu    sync.Mutex
	setupCache = map[string]*exp.Setup{}
)

func buildSetup(t testing.TB, preset string) *exp.Setup {
	t.Helper()
	setupMu.Lock()
	defer setupMu.Unlock()
	if s, ok := setupCache[preset]; ok {
		return s
	}
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		if spec, err = bench.IWLSSpec(preset); err != nil {
			t.Fatalf("unknown preset %q", preset)
		}
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	setupCache[preset] = s
	return s
}

// newTestManager builds a manager over a fresh engine on the cached design.
// The returned setup's reference engine is shared across tests of the same
// preset, so tests that commit resizes should use distinct presets or accept
// the netlist drift (timing state is re-derived per engine regardless).
func newTestManager(t testing.TB, preset string, topK, workers int, mopt server.Options) (*server.Manager, *exp.Setup) {
	t.Helper()
	s := buildSetup(t, preset)
	e, err := core.NewEngine(s.Tab, core.Options{TopK: topK, Workers: workers, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return server.NewManager(e, s.Ref, mopt), s
}

// managerKinds are the two shapes a daemon runs in — one nominal lane, or one
// lane per corner with the nominal view read from tt (lane 1, so a lane-0
// shorthand in the serving stack cannot pass) — for tests that must hold in
// both.
var managerKinds = []struct {
	name    string
	corners bool
}{{"single", false}, {"ss-tt-ff", true}}

// newKindManager builds a manager of either kind over a fresh engine on the
// cached design.
func newKindManager(t testing.TB, corners bool, preset string, topK, workers int, mopt server.Options) (*server.Manager, *exp.Setup) {
	t.Helper()
	if !corners {
		return newTestManager(t, preset, topK, workers, mopt)
	}
	s := buildSetup(t, preset)
	be, err := core.NewEngineScenarios(s.Tab, core.DefaultScenarios(), core.Options{TopK: topK, Workers: workers, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.Close)
	return server.NewManager(be, s.Ref, mopt), s
}

// resizeECOs converts a deterministic changelist into resize-form ECO
// requests (cell/lib names, the HTTP wire format).
func resizeECOs(s *exp.Setup, seed int64, n int) []server.ECORequest {
	cl := bench.Changelist(s.B, seed, n)
	out := make([]server.ECORequest, 0, len(cl))
	for _, r := range cl {
		out = append(out, server.ECORequest{Resizes: []server.ResizeReq{{
			Cell: s.B.D.Cells[r.Cell].Name,
			Lib:  s.B.Lib.Cell(r.NewLib).Name,
		}}})
	}
	return out
}

// arcDeltas returns a deterministic scattered arc perturbation restricted to
// arcs ≡ start (mod stride), so distinct starts give disjoint arc sets whose
// fan-out cones still overlap heavily.
func arcDeltas(e *core.Engine, start, stride int32, meanScale float64) []refsta.ArcDelta {
	var out []refsta.ArcDelta
	for arc := start; arc < int32(e.NumArcs()); arc += stride {
		var dl refsta.ArcDelta
		dl.ArcID = arc
		for rf := 0; rf < 2; rf++ {
			d := e.ArcDelay(arc, rf)
			d.Mean *= meanScale
			dl.Delay[rf] = d
		}
		out = append(out, dl)
	}
	return out
}

func applyAll(e *core.Engine, deltas []refsta.ArcDelta) {
	for _, dl := range deltas {
		e.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
		e.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil && err != io.EOF {
		t.Fatalf("%s: decode: %v", url, err)
	}
	return resp.StatusCode, m
}

// TestServeSessionLifecycle drives the full HTTP surface: create, what-if
// eval, commit, rollback, delete, the read-only endpoints, and the error
// statuses.
func TestServeSessionLifecycle(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()
	c := srv.Client()

	// healthz
	resp, err := c.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// create
	code, m := postJSON(t, c, srv.URL+"/session", nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var id string
	json.Unmarshal(m["id"], &id)
	if id == "" {
		t.Fatal("create returned no id")
	}

	// what-if eval: a real resize by name
	ecos := resizeECOs(s, 31, 4)
	code, m = postJSON(t, c, srv.URL+"/session/"+id+"/eco", ecos[0])
	if code != 200 {
		t.Fatalf("eco: %d %v", code, m)
	}
	var touched int
	json.Unmarshal(m["touched_arcs"], &touched)
	if touched == 0 {
		t.Fatal("eco touched no arcs")
	}

	// base unchanged until commit
	if got := mgr.Epoch(); got != 0 {
		t.Fatalf("epoch moved before commit: %d", got)
	}

	// commit bumps the epoch
	code, m = postJSON(t, c, srv.URL+"/session/"+id+"/commit", nil)
	if code != 200 {
		t.Fatalf("commit: %d %v", code, m)
	}
	if got := mgr.Epoch(); got != 1 {
		t.Fatalf("epoch after commit = %d, want 1", got)
	}

	// slacks endpoint reflects the committed base
	resp, err = c.Get(srv.URL + "/slacks?worst=3")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("slacks: %v", err)
	}
	var sl struct {
		Endpoints int                    `json:"endpoints"`
		Epoch     uint64                 `json:"epoch"`
		Worst     []server.EndpointSlack `json:"worst"`
	}
	json.NewDecoder(resp.Body).Decode(&sl)
	resp.Body.Close()
	if sl.Endpoints == 0 || sl.Epoch != 1 || len(sl.Worst) != 3 {
		t.Fatalf("slacks payload: %+v", sl)
	}
	if sl.Worst[0].Pin == "" {
		t.Fatal("worst endpoint missing pin name")
	}

	// rollback leaves the session open and empty
	code, m = postJSON(t, c, srv.URL+"/session/"+id+"/eco", ecos[1])
	if code != 200 {
		t.Fatalf("eco2: %d %v", code, m)
	}
	code, _ = postJSON(t, c, srv.URL+"/session/"+id+"/rollback", nil)
	if code != 200 {
		t.Fatalf("rollback: %d", code)
	}
	sess := mgr.Get(id)
	res, err := sess.Result()
	if err != nil || res.TouchedArcs != 0 {
		t.Fatalf("post-rollback view: %+v err=%v", res, err)
	}

	// gradients
	resp, err = c.Get(srv.URL + "/gradients?top=5")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("gradients: %v", err)
	}
	var gr struct {
		Stages []server.StageGrad `json:"stages"`
	}
	json.NewDecoder(resp.Body).Decode(&gr)
	resp.Body.Close()
	if len(gr.Stages) == 0 || gr.Stages[0].Name == "" {
		t.Fatalf("gradients payload: %+v", gr.Stages)
	}

	// error statuses
	code, _ = postJSON(t, c, srv.URL+"/session/nope/eco", ecos[2])
	if code != http.StatusNotFound {
		t.Fatalf("unknown session: %d", code)
	}
	code, _ = postJSON(t, c, srv.URL+"/session/"+id+"/eco", server.ECORequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	code, _ = postJSON(t, c, srv.URL+"/session/"+id+"/eco",
		server.ECORequest{Resizes: []server.ResizeReq{{Cell: "no_such_cell", Lib: "x"}}})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown cell: %d", code)
	}

	// delete, then the id is gone
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/session/"+id, nil)
	resp, err = c.Do(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	resp, _ = c.Get(srv.URL + "/session/" + id)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still resolves: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// metrics renders the request counters and kernel section header
	resp, err = c.Get(srv.URL + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"insta_requests_total", "insta_eco_seconds_count", "insta_sessions_live", "insta_commits_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeECONeverFullPropagates is the acceptance criterion on a
// block-2-size preset, for both kinds of daemon: session ECO evaluations (and
// commits) run only cone-limited kernels — the full forward kernel's span
// count is frozen after the one-time initialization — and because a daemon
// holds one engine, each ECO preview is exactly one overlay propagation and
// each structural edit exactly one reseed, however many corners it serves.
func TestServeECONeverFullPropagates(t *testing.T) {
	s := buildSetup(t, "block-2")
	for ki, kind := range managerKinds {
		t.Run(kind.name, func(t *testing.T) {
			tr := obs.NewTracer()
			opt := core.Options{TopK: 8, Workers: 2, Tracer: tr}
			// Kernel stats go on before NewManager so that fwd0, the pin count
			// of the one full propagate, is there to bound the overlay's.
			var mgr *server.Manager
			var stats *sched.Stats
			if kind.corners {
				be, err := core.NewEngineScenarios(s.Tab, core.DefaultScenarios(), opt)
				if err != nil {
					t.Fatal(err)
				}
				defer be.Close()
				stats = be.EnableKernelStats()
				mgr = server.NewManager(be, s.Ref, server.Options{})
			} else {
				e, err := core.NewEngine(s.Tab, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				stats = e.EnableKernelStats()
				mgr = server.NewManager(e, s.Ref, server.Options{})
			}
			defer mgr.Close()
			fwd0 := stats.KernelSpans(core.KernelForward)
			if fwd0 == 0 {
				t.Fatal("init ran no forward spans")
			}
			spans := func(name string) int64 {
				for _, p := range tr.Totals() {
					if p.Name == name {
						return p.Count
					}
				}
				return 0
			}
			if spans(core.KernelForward) != 1 {
				t.Fatalf("init ran %d full forward propagations, want 1", spans(core.KernelForward))
			}

			sess, err := mgr.Create()
			if err != nil {
				t.Fatal(err)
			}
			changed := 0
			// The commit below replays its resizes into the shared reference
			// netlist, so each kind draws its own changelist.
			reqs := resizeECOs(s, 57+int64(ki), 6)
			for i, req := range reqs {
				res, err := sess.ApplyECO(req)
				if err != nil {
					t.Fatal(err)
				}
				changed += len(res.Changed)
				if got := spans(core.KernelOverlay); got != int64(i+1) {
					t.Fatalf("%d ECO previews ran %d overlay propagations, want one each", i+1, got)
				}
			}
			if changed == 0 {
				t.Fatal("ECO batches changed no endpoints — vacuous")
			}
			if _, err := sess.Commit(); err != nil {
				t.Fatal(err)
			}
			// Cone-limited: six previews and their commit together touch
			// fewer pins than one full propagate.
			if got := stats.KernelSpans(core.KernelForward); got != fwd0 {
				t.Fatalf("session ECO path ran a full propagate: forward spans %d -> %d", fwd0, got)
			}
			if ov := stats.KernelSpans(core.KernelOverlay); ov == 0 || ov >= fwd0 {
				t.Fatalf("overlay spans %d not cone-limited (one full propagate = %d)", ov, fwd0)
			}
			// Structural edits: one reseed of the one working engine each.
			for i := 0; i < 2; i++ {
				if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
					{Op: "buffer", Arc: firstNetArc(t, s, 3*i)},
				}}); err != nil {
					t.Fatal(err)
				}
				if got := spans("engine-reseed"); got != int64(i+1) {
					t.Fatalf("%d structural edits ran %d reseeds, want one each", i+1, got)
				}
			}
			if _, err := sess.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := spans(core.KernelForward); got != 1 {
				t.Fatalf("session path ran a full propagate: %d forward sweeps", got)
			}
			if got := spans(core.KernelOverlay); got != int64(len(reqs)) {
				t.Fatalf("commits re-ran the overlay: %d propagations for %d previews", got, len(reqs))
			}
			if got := stats.KernelSpans(core.KernelForward); got != fwd0 {
				t.Fatalf("a full forward kernel launched after initialization: forward spans %d -> %d", fwd0, got)
			}
		})
	}
}

// TestServeConcurrentSessionsBitIdentical is the satellite -race stress: 8
// goroutines run disjoint-arc (but overlapping-cone) ECO batches in private
// sessions, verify each preview against a private twin engine while no
// commits are in flight, then commit concurrently in arbitrary order. The
// final committed base must be bit-identical to a fresh full propagate of
// all deltas.
func TestServeConcurrentSessionsBitIdentical(t *testing.T) {
	for _, kind := range managerKinds {
		t.Run(kind.name, func(t *testing.T) { concurrentSessionsBitIdentical(t, kind.corners) })
	}
}

func concurrentSessionsBitIdentical(t *testing.T, corners bool) {
	const n = 8
	mgr, s := newKindManager(t, corners, "block-5", 6, 4, server.Options{})
	e := mgr.Engine()

	deltas := make([][]refsta.ArcDelta, n)
	for g := 0; g < n; g++ {
		deltas[g] = arcDeltas(e, int32(3*g+1), 17*n, 1.0+0.02*float64(g+1))
	}

	var evalWG, commitWG sync.WaitGroup
	errs := make(chan error, n)
	previews := make([]*server.ECOResult, n)
	sessions := make([]*server.Session, n)

	// Phase 1: concurrent evaluation, no commits — every preview must match
	// a twin engine carrying only that session's deltas.
	for g := 0; g < n; g++ {
		evalWG.Add(1)
		go func(g int) {
			defer evalWG.Done()
			sess, err := mgr.Create()
			if err != nil {
				errs <- err
				return
			}
			sessions[g] = sess
			// Split the batch in two to exercise repeated incremental evals.
			half := len(deltas[g]) / 2
			if _, err := sess.ApplyDeltas(deltas[g][:half]); err != nil {
				errs <- err
				return
			}
			res, err := sess.ApplyDeltas(deltas[g][half:])
			if err != nil {
				errs <- err
				return
			}
			previews[g] = res
		}(g)
	}
	evalWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for g := 0; g < n; g++ {
		twin, err := core.NewEngine(s.Tab, core.Options{TopK: 6, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		applyAll(twin, deltas[g])
		want := twin.Run()
		view, err := sessions[g].Slacks()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if view[i] != want[i] {
				twin.Close()
				t.Fatalf("session %d ep %d: preview %v != twin %v", g, i, view[i], want[i])
			}
		}
		if previews[g].TNS != twin.TNS() {
			twin.Close()
			t.Fatalf("session %d: preview TNS %v != twin %v", g, previews[g].TNS, twin.TNS())
		}
		twin.Close()
	}

	// Phase 2: concurrent commits in arbitrary order. Arc sets are disjoint,
	// so the final annotation state is order-independent and must equal
	// sequential application of all batches.
	errs2 := make(chan error, n)
	for g := 0; g < n; g++ {
		commitWG.Add(1)
		go func(g int) {
			defer commitWG.Done()
			if _, err := sessions[g].Commit(); err != nil {
				errs2 <- err
			}
		}(g)
	}
	commitWG.Wait()
	close(errs2)
	for err := range errs2 {
		t.Fatal(err)
	}

	twin, err := core.NewEngine(s.Tab, core.Options{TopK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for g := 0; g < n; g++ {
		applyAll(twin, deltas[g])
	}
	want := twin.Run()
	got := mgr.BaseSlacks()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed ep %d: %v != sequential %v", i, got[i], want[i])
		}
	}
	if mgr.BaseWNS() != twin.WNS() || mgr.BaseTNS() != twin.TNS() {
		t.Fatalf("committed WNS/TNS %v/%v != sequential %v/%v", mgr.BaseWNS(), mgr.BaseTNS(), twin.WNS(), twin.TNS())
	}
	if mgr.Epoch() != n {
		t.Fatalf("epoch = %d, want %d", mgr.Epoch(), n)
	}
}

// TestServeRebaseSequentialSemantics pins the deterministic two-session
// interleaving: B evaluates, A commits, B's next evaluation sees A's commit
// (rebase), and B's commit lands sequential application of both.
func TestServeRebaseSequentialSemantics(t *testing.T) {
	mgr, s := newTestManager(t, "des", 6, 2, server.Options{})
	e := mgr.Engine()

	dA := arcDeltas(e, 2, 61, 1.15)
	dB := arcDeltas(e, 5, 67, 0.9)

	a, _ := mgr.Create()
	b, _ := mgr.Create()
	if _, err := b.ApplyDeltas(dB); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyDeltas(dA); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// B's view is stale; any read rebases it over A's commit.
	resB, err := b.Result()
	if err != nil {
		t.Fatal(err)
	}
	if resB.Epoch != 1 {
		t.Fatalf("B did not rebase: epoch %d", resB.Epoch)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	twin, err := core.NewEngine(s.Tab, core.Options{TopK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	applyAll(twin, dA)
	applyAll(twin, dB)
	want := twin.Run()
	got := e.Slacks()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ep %d: %v != sequential %v", i, got[i], want[i])
		}
	}
}

// TestServeAdmissionAndTTL covers the overload and eviction paths.
func TestServeAdmissionAndTTL(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 4, 1, server.Options{MaxSessions: 2, TTL: time.Nanosecond})
	s1, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err = mgr.Create(); err != nil {
		t.Fatal(err)
	}
	if _, err = mgr.Create(); err != server.ErrTooManySessions {
		t.Fatalf("over cap: %v", err)
	}

	// HTTP surface: the cap maps to 503.
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()
	code, _ := postJSON(t, srv.Client(), srv.URL+"/session", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create over cap: %d", code)
	}

	// Both sessions are idle beyond the 1ns TTL.
	time.Sleep(time.Millisecond)
	if n := mgr.Sweep(time.Now()); n != 2 {
		t.Fatalf("sweep evicted %d, want 2", n)
	}
	if mgr.NumSessions() != 0 {
		t.Fatalf("sessions after sweep: %d", mgr.NumSessions())
	}
	if err := s1.Rollback(); err != server.ErrSessionClosed {
		t.Fatalf("evicted session usable: %v", err)
	}
	c := mgr.Counters()
	if c.Evicted != 2 || c.Rejected != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestServeLoadSmoke is the ci.sh load check: 100 concurrent ECO requests
// over 10 sessions against a live daemon — a server.Daemon assembled from the
// daemon flag set, request shell on, as both mains run it — zero errors.
func TestServeLoadSmoke(t *testing.T) {
	for _, kind := range managerKinds {
		t.Run(kind.name, func(t *testing.T) { loadSmoke(t, kind.corners) })
	}
}

func loadSmoke(t *testing.T, corners bool) {
	args := []string{"-topk", "6", "-workers", "4", "-max-sessions", "32"}
	if corners {
		args = append(args, "-corners", "ss,tt,ff")
	}
	d, bt, url := bootDaemon(t, args...)
	tr := &http.Transport{MaxIdleConnsPerHost: 100}
	defer func() {
		// Shutdown waits out connections that never carried a request, which
		// a transport dialing ahead of 100 concurrent posts leaves behind.
		tr.CloseIdleConnections()
		d.Close(context.Background())
	}()
	mgr, c := d.Manager(), &http.Client{Transport: tr}

	const sessions = 10
	const perSession = 10
	reqs := resizeECOs(&exp.Setup{B: bt.B}, 83, sessions*perSession)

	ids := make([]string, sessions)
	for i := range ids {
		code, m := postJSON(t, c, url+"/session", nil)
		if code != http.StatusCreated {
			t.Fatalf("create %d: %d", i, code)
		}
		json.Unmarshal(m["id"], &ids[i])
	}

	var wg sync.WaitGroup
	errCount := make(chan string, sessions*perSession)
	for i := 0; i < sessions*perSession; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ids[i%sessions]
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(reqs[i])
			resp, err := c.Post(url+"/session/"+id+"/eco", "application/json", &buf)
			if err != nil {
				errCount <- err.Error()
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errCount <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(errCount)
	for msg := range errCount {
		t.Errorf("eco request failed: %s", msg)
	}
	if t.Failed() {
		t.Fatalf("load smoke saw errors")
	}

	// Every session holds a consistent preview; spot-check one at random.
	id := ids[rand.Intn(sessions)]
	if _, err := mgr.Get(id).Result(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Counters().ECOs; got != sessions*perSession {
		t.Fatalf("eco batches counted %d, want %d", got, sessions*perSession)
	}
}

// TestServeGradientsMatchDirectBackward pins the /gradients ranking to the
// engine's own backward pass.
func TestServeGradientsMatchDirectBackward(t *testing.T) {
	mgr, s := newTestManager(t, "des", 6, 2, server.Options{})
	got := mgr.Gradients(10)
	if len(got) == 0 {
		t.Fatal("no gradient stages")
	}

	twin, err := core.NewEngine(s.Tab, core.Options{TopK: 6, Workers: 1, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	twin.Run()
	twin.Backward()
	stages := twin.StageGradients()
	if len(stages) == 0 {
		t.Fatal("twin has no stages")
	}
	best := stages[0]
	for _, st := range stages {
		if st.Grad < best.Grad || (st.Grad == best.Grad && st.Cell < best.Cell) {
			best = st
		}
	}
	if got[0].Cell != best.Cell || got[0].Grad != best.Grad {
		t.Fatalf("top gradient (%d, %v) != twin (%d, %v)", got[0].Cell, got[0].Grad, best.Cell, best.Grad)
	}
}
