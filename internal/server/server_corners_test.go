package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/server"
	"insta/internal/snap"
)

// newCornerManager builds a manager serving one {ss,tt,ff} scenario engine
// and returns that engine beside it.
func newCornerManager(t testing.TB, preset string, topK, workers int) (*server.Manager, *core.Engine) {
	t.Helper()
	mgr, _ := newKindManager(t, true, preset, topK, workers, server.Options{})
	return mgr, mgr.Engine()
}

// newScenarioTwin builds an independent {ss,tt,ff} engine on the cached
// design, closed with the test.
func newScenarioTwin(t testing.TB, topK int) *core.Engine {
	t.Helper()
	twin, err := core.NewEngineScenarios(buildSetup(t, "des").Tab, core.DefaultScenarios(), core.Options{TopK: topK, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(twin.Close)
	return twin
}

// TestSpareEngineIsEvaluatedOnceAndLeftAlone: callers that still hand
// NewManager a single-lane engine next to Options.Batch (the benchmark's
// set-up builds its own overlays on it) get it fully evaluated, and nothing
// the manager does afterwards — previews, commits — touches it. The served
// engine comes from snap.Snapshot.Batch, the way the benchmark builds it.
func TestSpareEngineIsEvaluatedOnceAndLeftAlone(t *testing.T) {
	s := buildSetup(t, "des")
	opt := core.Options{TopK: 6, Workers: 1}
	e, err := core.NewEngine(s.Tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snp, err := snap.Decode(snap.Encode(e.ExportState(), nil, ""))
	if err != nil {
		t.Fatal(err)
	}
	be, err := snp.Batch(core.DefaultScenarios(), opt)
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

	deltas := arcDeltas(mgr.Engine(), 3, 41, 1.25)
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ApplyDeltas(deltas)
	if err != nil {
		t.Fatal(err)
	}
	S := be.Lanes()
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
	twin := newScenarioTwin(t, 8)
	for _, dl := range deltas {
		twin.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
		twin.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
	}
	twin.Run()
	for sidx := 0; sidx < S; sidx++ {
		want := twin.LaneSlacks(sidx)
		for i := range want {
			if previews[sidx][i] != want[i] {
				t.Fatalf("scenario %d ep %d: preview %v != twin %v", sidx, i, previews[sidx][i], want[i])
			}
		}
		if res.Scenarios[sidx].WNS != core.WNS(want) || res.Scenarios[sidx].TNS != core.TNS(want) {
			t.Fatalf("scenario %d view WNS/TNS %v/%v != twin %v/%v", sidx,
				res.Scenarios[sidx].WNS, res.Scenarios[sidx].TNS, core.WNS(want), core.TNS(want))
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
		got := be.LaneSlacks(sidx)
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

	twin := newScenarioTwin(t, 6)
	for _, dl := range append(dA, dB...) {
		twin.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
		twin.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
	}
	twin.Run()
	const ss = 0 // lane 0 of {ss,tt,ff}
	want := twin.LaneSlacks(ss)
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("rebased ss ep %d: %v != sequential %v", i, view[i], want[i])
		}
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	got := be.LaneSlacks(ss)
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

// TestMultiCornerRule pins which daemons serve corners: one started with
// -corners — even a one-scenario -corners tt, whose engine has a single lane
// — answers with corners and scenarios sections; one started without, over
// core.NewEngineFromState's single lane, answers with neither. Both
// transcripts are held byte for byte to testdata/corners_rule.golden, which
// was recorded before the scenario engine moved into core (re-record with
// -update only when the wire format is meant to change).
func TestMultiCornerRule(t *testing.T) {
	var out bytes.Buffer
	for _, kind := range []struct {
		name    string
		args    []string
		corners bool
	}{{"plain", nil, false}, {"corners-tt", []string{"-corners", "tt"}, true}} {
		d, bt, _ := bootDaemon(t, kind.args...)
		mgr := d.Manager()
		if got := mgr.Engine().Lanes(); got != 1 {
			t.Fatalf("%s: %d lanes, want 1", kind.name, got)
		}
		w := &wireTranscript{t: t, h: server.New(mgr, "des").Handler(), out: &out}
		k := kind.name
		var bodies [][]byte
		bodies = append(bodies, w.do(k, "GET", "/healthz", nil))
		bodies = append(bodies, w.do(k, "GET", "/slacks?worst=2", nil))
		w.do(k, "GET", "/slacks?scenario=tt&worst=1", nil)
		w.do(k, "GET", "/slacks?scenario=merged", nil)
		w.do(k, "POST", "/session", nil)
		// Slow an arc into the worst endpoint: the ECO moves WNS.
		base, worst := mgr.BaseSlacks(), 0
		for i, sl := range base {
			if sl < base[worst] {
				worst = i
			}
		}
		pin := mgr.Engine().Endpoints()[worst]
		arc := slices.IndexFunc(bt.Tab.Arcs, func(a circuitops.ArcRow) bool { return a.To == pin })
		eco := server.ECORequest{Arcs: []server.ArcECO{shiftArc(mgr.Engine(), int32(arc), 30)}}
		bodies = append(bodies, w.do(k, "POST", "/session/s1/eco", eco))
		bodies = append(bodies, w.do(k, "GET", "/session/s1", nil))
		bodies = append(bodies, w.do(k, "POST", "/session/s1/commit", nil))
		bodies = append(bodies, w.do(k, "GET", "/slacks?worst=1", nil))
		for _, b := range bodies {
			if has := bytes.Contains(b, []byte(`"corners"`)) || bytes.Contains(b, []byte(`"scenarios"`)); has != kind.corners {
				t.Errorf("%s: corner sections present = %v, want %v in %s", k, has, kind.corners, b)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.Close(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	compareGolden(t, "corners_rule.golden", out.Bytes())
}
