package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"insta/internal/batch"
	"insta/internal/core"
	"insta/internal/server"
)

// newCornerManager builds a manager serving one {ss,tt,ff} scenario engine
// and returns that engine's scenario view beside it.
func newCornerManager(t testing.TB, preset string, topK, workers int) (*server.Manager, *batch.Engine) {
	t.Helper()
	mgr, _ := newKindManager(t, true, preset, topK, workers, server.Options{})
	return mgr, mgr.Batch()
}

// TestSpareEngineIsEvaluatedOnceAndLeftAlone: callers that still hand
// NewManager a single-lane engine next to Options.Batch (the benchmark's
// set-up builds its own overlays on it) get it fully evaluated, and nothing
// the manager does afterwards — previews, commits — touches it.
func TestSpareEngineIsEvaluatedOnceAndLeftAlone(t *testing.T) {
	s := buildSetup(t, "des")
	opt := core.Options{TopK: 6, Workers: 1}
	e, err := core.NewEngine(s.Tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	be, err := batch.New(s.Tab, batch.DefaultScenarios(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	stats := e.EnableKernelStats()
	mgr := server.NewManager(e, s.Ref, server.Options{Batch: be})
	if mgr.Engine() != be.Engine {
		t.Fatal("the manager serves something other than Options.Batch")
	}
	before := append([]float64(nil), e.Slacks()...)
	if stats.KernelSpans(core.KernelForward) == 0 || len(before) == 0 || mgr.BaseWNS() != e.WNS() {
		t.Fatal("the spare engine was not brought to the evaluated state")
	}
	launches := stats.KernelLaunches(core.KernelForward)
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 1, 53, 1.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if mgr.BaseWNS() == e.WNS() && mgr.BaseTNS() == e.TNS() {
		t.Fatal("commit moved nothing — vacuous")
	}
	for i, sl := range e.Slacks() {
		if sl != before[i] {
			t.Fatalf("commit reached the spare engine: ep %d %v -> %v", i, before[i], sl)
		}
	}
	if stats.KernelLaunches(core.KernelForward) != launches {
		t.Fatal("the spare engine was propagated again")
	}
}

// TestServeMultiCornerPreviewMatchesCommit: a session's per-scenario preview
// — priced by one batched cone re-propagation — must be bit-identical to the
// committed base and to an independent batched engine carrying the same
// nominal deltas.
func TestServeMultiCornerPreviewMatchesCommit(t *testing.T) {
	mgr, be := newCornerManager(t, "des", 8, 2)
	s := buildSetup(t, "des")

	deltas := arcDeltas(mgr.Engine(), 3, 41, 1.25)
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ApplyDeltas(deltas)
	if err != nil {
		t.Fatal(err)
	}
	S := be.NumScenarios()
	if len(res.Scenarios) != S+1 || res.Scenarios[S].Name != "merged" {
		t.Fatalf("scenario views malformed: %+v", res.Scenarios)
	}

	// Preview slacks per scenario, captured before commit.
	previews := make([][]float64, S)
	for i, scn := range be.Scenarios() {
		if previews[i], err = sess.ScenarioSlacks(scn.Name); err != nil {
			t.Fatal(err)
		}
	}
	prevMerged, err := sess.ScenarioSlacks("merged")
	if err != nil {
		t.Fatal(err)
	}

	// Independent batched twin with the same nominal deltas.
	twin, err := batch.New(s.Tab, batch.DefaultScenarios(), core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, dl := range deltas {
		twin.SetArcDelay(dl.ArcID, 0, dl.Delay[0].Mean, dl.Delay[0].Std)
		twin.SetArcDelay(dl.ArcID, 1, dl.Delay[1].Mean, dl.Delay[1].Std)
	}
	twin.Run()
	for sidx := 0; sidx < S; sidx++ {
		want := twin.Slacks(sidx)
		for i := range want {
			if previews[sidx][i] != want[i] {
				t.Fatalf("scenario %d ep %d: preview %v != twin %v", sidx, i, previews[sidx][i], want[i])
			}
		}
		if res.Scenarios[sidx].WNS != twin.WNS(sidx) || res.Scenarios[sidx].TNS != twin.TNS(sidx) {
			t.Fatalf("scenario %d view WNS/TNS %v/%v != twin %v/%v", sidx,
				res.Scenarios[sidx].WNS, res.Scenarios[sidx].TNS, twin.WNS(sidx), twin.TNS(sidx))
		}
	}
	tm := twin.Merged()
	if res.Scenarios[S].WNS != tm.WNS || res.Scenarios[S].TNS != tm.TNS {
		t.Fatalf("merged view %v/%v != twin %v/%v", res.Scenarios[S].WNS, res.Scenarios[S].TNS, tm.WNS, tm.TNS)
	}

	// Commit: the batched base must land exactly on the preview.
	cres, err := sess.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Scenarios) != S+1 {
		t.Fatalf("commit scenario views malformed: %+v", cres.Scenarios)
	}
	// Wire compatibility: an annotation commit reports its movement in the
	// scenario rows and leaves the top-level deltas zero.
	if cres.DeltaWNS != 0 || cres.DeltaTNS != 0 {
		t.Fatalf("annotation commit top-level deltas %v/%v, want 0/0", cres.DeltaWNS, cres.DeltaTNS)
	}
	for sidx := 0; sidx < S; sidx++ {
		got := be.Slacks(sidx)
		for i := range got {
			if got[i] != previews[sidx][i] {
				t.Fatalf("scenario %d ep %d: committed %v != preview %v", sidx, i, got[i], previews[sidx][i])
			}
		}
	}
	mergedNow := be.Merged().Slacks
	for i := range mergedNow {
		if mergedNow[i] != prevMerged[i] {
			t.Fatalf("merged ep %d: committed %v != preview %v", i, mergedNow[i], prevMerged[i])
		}
	}
}

// TestServeMultiCornerRebase: after another session commits, a stale
// session's scenario view must rebase to sequential-application semantics.
func TestServeMultiCornerRebase(t *testing.T) {
	mgr, be := newCornerManager(t, "des", 6, 2)
	s := buildSetup(t, "des")
	e := mgr.Engine()

	dA := arcDeltas(e, 2, 73, 1.2)
	dB := arcDeltas(e, 7, 79, 0.85)

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
	// B's next scenario read rebases over A's commit.
	view, err := b.ScenarioSlacks("ss")
	if err != nil {
		t.Fatal(err)
	}

	twin, err := batch.New(s.Tab, batch.DefaultScenarios(), core.Options{TopK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, dl := range dA {
		twin.SetArcDelay(dl.ArcID, 0, dl.Delay[0].Mean, dl.Delay[0].Std)
		twin.SetArcDelay(dl.ArcID, 1, dl.Delay[1].Mean, dl.Delay[1].Std)
	}
	for _, dl := range dB {
		twin.SetArcDelay(dl.ArcID, 0, dl.Delay[0].Mean, dl.Delay[0].Std)
		twin.SetArcDelay(dl.ArcID, 1, dl.Delay[1].Mean, dl.Delay[1].Std)
	}
	twin.Run()
	ss := twin.ScenarioIndex("ss")
	want := twin.Slacks(ss)
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("rebased ss ep %d: %v != sequential %v", i, view[i], want[i])
		}
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	got := be.Slacks(ss)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed ss ep %d: %v != sequential %v", i, got[i], want[i])
		}
	}
}

// TestServeMultiCornerHTTP drives the scenario query surface over HTTP,
// including the single-corner 501 and unknown-scenario 404 paths.
func TestServeMultiCornerHTTP(t *testing.T) {
	mgr, _ := newCornerManager(t, "des", 6, 1)
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()
	c := srv.Client()

	// healthz lists the corners.
	resp, err := c.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v", err)
	}
	var hz struct {
		Design server.Info `json:"design"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if len(hz.Design.Corners) != 3 || hz.Design.Corners[0] != "ss" {
		t.Fatalf("healthz corners: %+v", hz.Design.Corners)
	}

	// Base slacks per scenario and merged.
	for _, scn := range []string{"ss", "tt", "ff", "merged"} {
		resp, err := c.Get(srv.URL + "/slacks?scenario=" + scn)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("slacks?scenario=%s: %v %d", scn, err, resp.StatusCode)
		}
		var sl struct {
			Scenario string                `json:"scenario"`
			Corners  []server.ScenarioView `json:"corners"`
		}
		json.NewDecoder(resp.Body).Decode(&sl)
		resp.Body.Close()
		if sl.Scenario != scn || len(sl.Corners) != 4 {
			t.Fatalf("slacks payload for %s: %+v", scn, sl)
		}
	}
	resp, _ = c.Get(srv.URL + "/slacks?scenario=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Session scenario slacks.
	code, m := postJSON(t, c, srv.URL+"/session", nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var id string
	json.Unmarshal(m["id"], &id)
	resp, err = c.Get(srv.URL + "/session/" + id + "/slacks?scenario=merged")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("session slacks: %v %d", err, resp.StatusCode)
	}
	var ssl struct {
		Scenario string    `json:"scenario"`
		Slacks   []float64 `json:"slacks"`
	}
	json.NewDecoder(resp.Body).Decode(&ssl)
	resp.Body.Close()
	if ssl.Scenario != "merged" || len(ssl.Slacks) == 0 {
		t.Fatalf("session slacks payload: scenario=%q n=%d", ssl.Scenario, len(ssl.Slacks))
	}

	// A single-corner server answers scenario queries with 501.
	mono, _ := newTestManager(t, "des", 6, 1, server.Options{})
	msrv := httptest.NewServer(server.New(mono, "des").Handler())
	defer msrv.Close()
	resp, _ = msrv.Client().Get(msrv.URL + "/slacks?scenario=ss")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("single-corner scenario query: %d", resp.StatusCode)
	}
	resp.Body.Close()
}
