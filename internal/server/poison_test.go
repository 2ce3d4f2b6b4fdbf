package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/refsta"
)

// buildTables generates spec's design and returns its reference engine and
// extraction tables.
func buildTables(t testing.TB, spec bench.Spec) (*refsta.Engine, *circuitops.Tables) {
	t.Helper()
	g, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(g.D, g.Lib, g.Con, g.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ref, circuitops.Extract(ref)
}

// laneViews reads every lane of a view — the committed base, or a session —
// in lane order, through read.
func laneViews(scns []core.Scenario, read func(name string) ([]float64, error)) ([][]float64, error) {
	var out [][]float64
	for _, scn := range scns {
		v, err := read(scn.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// readSession and readBase adapt a session and the committed base to the
// one-lane reader laneViews takes.
func readSession(s *Session) func(name string) ([]float64, error) {
	return func(name string) ([]float64, error) { return s.ScenarioSlacksInto(name, nil) }
}

func readBase(m *Manager) func(name string) ([]float64, error) {
	return func(name string) ([]float64, error) {
		v, err := m.BaseViewInto(name, nil)
		return v.Slacks, err
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// TestSessionPanicPoisonsOnlyThatSession: a session whose preview panics is
// closed and unlinked, and nothing else notices. Its overlay is pointed at a
// smaller engine, where it previews once, so that its next ECO indexes past
// that engine's arcs: a resize, whose estimate_eco deltas name arcs of the
// served design, which an arc id the caller gives could not (it is checked
// against the engine under the overlay). The request answers 500 with
// ErrSessionPoisoned and is pinned by the flight recorder; later calls on the
// session get ErrSessionClosed (410) and its id is gone. Meanwhile a second
// session and the base are read in a loop. The daemon keeps serving, the
// committed base and the second session read bit-identically before and
// after, the served engine's insta_overlay_rows counts only the second
// session's rows, and the smaller engine's none.
func TestSessionPanicPoisonsOnlyThatSession(t *testing.T) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		t.Fatal(err)
	}
	ref, tab := buildTables(t, spec)
	e, err := core.NewEngineScenarios(tab, core.DefaultScenarios(), core.Options{TopK: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tiny := spec
	tiny.Name, tiny.Groups, tiny.FFsPerGroup, tiny.Layers, tiny.Width = "tiny", 1, 8, 3, 4
	_, tinyTab := buildTables(t, tiny)
	small, err := core.NewEngineScenarios(tinyTab, core.DefaultScenarios(), core.Options{TopK: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	small.Run()

	m := NewManager(e, ref, Options{})
	m.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv := New(m, "des")
	sh := shell.New(shell.Options{Tracer: obs.NewTracer(), FlightSize: 16, FlightPin: time.Hour})
	srv.Observe(sh)
	h := srv.Handler()
	post := func(target string, body any) (int, []byte) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", target, bytes.NewReader(b)))
		return w.Code, w.Body.Bytes()
	}
	slower := func(arc int32) ECORequest {
		rise, fall := e.ArcDelay(arc, 0), e.ArcDelay(arc, 1)
		rise.Mean, fall.Mean = rise.Mean+40, fall.Mean+40
		return ECORequest{Arcs: []ArcECO{{Arc: arc, Rise: rise, Fall: fall}}}
	}

	live, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if res, err := live.ApplyECO(slower(11)); err != nil || len(res.Changed) == 0 {
		t.Fatalf("the live session's ECO moved %v, err %v", res, err)
	}
	rows, _ := e.OverlayRows()
	if rows == 0 {
		t.Fatal("the live session's preview holds no rows — the check is vacuous")
	}
	scns := m.Scenarios()
	lanes := func(read func(string) ([]float64, error)) [][]float64 {
		v, err := laneViews(scns, read)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	base, liveView := lanes(readBase(m)), lanes(readSession(live))

	doomed, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.ApplyECO(slower(29)); err != nil {
		t.Fatal(err)
	}
	doomed.ov.Rebase(small)
	if _, err := doomed.ApplyECO(slower(3)); err != nil {
		t.Fatal(err)
	}
	if r, _ := small.OverlayRows(); r == 0 {
		t.Fatal("the doomed session's preview on the smaller engine holds no rows — the check is vacuous")
	}
	// A resize whose deltas name an arc past the smaller engine's.
	var past ECORequest
	for _, rz := range bench.Changelist(&bench.Design{D: ref.D, Lib: ref.Lib}, 7, 16) {
		deltas, err := ref.EstimateECO(rz.Cell, rz.NewLib)
		if err == nil && slices.ContainsFunc(deltas, func(d refsta.ArcDelta) bool { return int(d.ArcID) >= small.NumArcs() }) {
			past = ECORequest{Resizes: []ResizeReq{{Cell: ref.D.Cells[rz.Cell].Name, Lib: ref.Lib.Cell(rz.NewLib).Name}}}
			break
		}
	}
	if past.Resizes == nil {
		t.Fatal("no resize names an arc past the smaller engine's")
	}

	// The second session and the base are read throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, scn := range scns {
				sv, err := live.ScenarioSlacksInto(scn.Name, nil)
				bv, berr := m.BaseViewInto(scn.Name, nil)
				if err != nil || berr != nil || !sameBits([][]float64{sv, bv.Slacks}, [][]float64{liveView[i], base[i]}) {
					t.Errorf("lane %s moved while another session was poisoned (%v, %v)", scn.Name, err, berr)
					return
				}
			}
		}
	}()
	code, body := post("/session/"+doomed.ID+"/eco", past)
	close(stop)
	wg.Wait()
	if code != http.StatusInternalServerError || !bytes.Contains(body, []byte(ErrSessionPoisoned.Error())) {
		t.Fatalf("the panicking preview answered %d %s, want 500 and ErrSessionPoisoned", code, body)
	}
	pinned := sh.Flight.Pinned()
	if len(pinned) != 1 || pinned[0].Rec.Status != http.StatusInternalServerError {
		t.Fatalf("flight recorder pinned %+v, want the one 500", pinned)
	}

	// Later calls on the poisoned session: 410 in process, and its id is gone.
	if _, err := doomed.Result(); !errors.Is(err, ErrSessionClosed) || errCode(err) != http.StatusGone {
		t.Fatalf("a call on the poisoned session: err %v", err)
	}
	if m.Get(doomed.ID) != nil || m.NumSessions() != 1 {
		t.Fatalf("the poisoned session is still linked: %d live", m.NumSessions())
	}
	if code, body := post("/session/"+doomed.ID+"/eco", slower(29)); code != http.StatusNotFound {
		t.Fatalf("an ECO on the poisoned id answered %d %s, want 404", code, body)
	}

	// Nothing else noticed, and the daemon keeps serving.
	if got, _ := e.OverlayRows(); got != rows {
		t.Fatalf("insta_overlay_rows %d after the poisoning, the live session holds %d", got, rows)
	}
	if got, _ := small.OverlayRows(); got != 0 {
		t.Fatalf("the smaller engine counts %d rows after the poisoning, want 0", got)
	}
	if !sameBits(lanes(readBase(m)), base) || !sameBits(lanes(readSession(live)), liveView) {
		t.Fatal("the base or the live session reads differently after the poisoning")
	}
	if code, body := post("/session", nil); code != http.StatusCreated {
		t.Fatalf("create after the poisoning answered %d %s", code, body)
	}
	if code, body := post("/session/"+live.ID+"/eco", slower(29)); code != http.StatusOK {
		t.Fatalf("an ECO on the live session answered %d %s", code, body)
	}
	if _, err := live.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerPanicAnswers500: a panic that escapes a handler — one a session
// evaluation does not contain, such as a commit's — answers 500 with a JSON
// error and is accounted for like any request: the in-flight gauge is back at
// zero, insta_requests_total counts the 500 under the route, and the flight
// recorder pins it.
func TestHandlerPanicAnswers500(t *testing.T) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name, spec.Groups, spec.FFsPerGroup, spec.Layers, spec.Width = "tiny", 1, 8, 3, 4
	_, tab := buildTables(t, spec)
	e, err := core.NewEngine(tab, core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := NewManager(e, nil, Options{})
	defer m.Close()
	srv := New(m, "tiny")
	srv.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	sh := shell.New(shell.Options{FlightSize: 16, FlightPin: time.Hour})
	srv.Observe(sh)

	boom := srv.route("boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	w := httptest.NewRecorder()
	boom(w, httptest.NewRequest("POST", "/boom", nil))
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
		t.Fatalf("the panicking handler answered %d %q", w.Code, w.Body)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("%d requests in flight after the panic, want 0", n)
	}
	mw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(mw, httptest.NewRequest("GET", "/metrics", nil))
	if want := `insta_requests_total{route="boom",code="500"} 1`; !bytes.Contains(mw.Body.Bytes(), []byte(want)) {
		t.Fatalf("/metrics lacks %s", want)
	}
	if pinned := sh.Flight.Pinned(); len(pinned) != 1 || pinned[0].Rec.Status != http.StatusInternalServerError || pinned[0].Rec.Route != "boom" {
		t.Fatalf("flight recorder pinned %+v, want the one 500", pinned)
	}
}
