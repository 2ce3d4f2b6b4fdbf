package server_test

// TestWireGolden pins the bytes of every JSON response the daemon writes: one
// recorded response per route and shape, replayed through the handler and
// compared with testdata/wire.golden. The goldens were recorded at the commit
// before the responses became typed structs encoded by encoding/json (they
// were maps through a private encoder then), so a key that moves, an omitted
// field that appears, a float that formats differently or a string that
// escapes differently fails here. Re-record with
//
//	go test ./internal/server -run TestWireGolden -update
//
// only when the wire format is meant to change; the engine's own numbers are
// pinned by internal/core's goldens, not here.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
	"insta/internal/snap"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's responses")

// wireMasks blank what legitimately differs between two runs of one build.
var wireMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"uptime_s":[0-9.e+-]+`), `"uptime_s":0`},
	{regexp.MustCompile(`"latency_s":\{[^}]*\}`), `"latency_s":{}`},
	{regexp.MustCompile(`"path":"[^"]*"`), `"path":""`},
	{regexp.MustCompile(`"bytes":[0-9]+`), `"bytes":0`},
	{regexp.MustCompile(`"(cold_build_ms|snap_load_ms)":[0-9.e+-]+`), `"$1":0`},
}

// wireTranscript replays requests against one handler and records, per
// request, the status line, the headers the API promises and the body.
type wireTranscript struct {
	t   *testing.T
	h   http.Handler
	out *bytes.Buffer
}

func (w *wireTranscript) do(label, method, target string, body any) []byte {
	w.t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			w.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, req)
	resp := rec.Body.Bytes()
	for _, m := range wireMasks {
		resp = m.re.ReplaceAll(resp, []byte(m.with))
	}
	fmt.Fprintf(w.out, "--- %s: %s %s\n%d %s\n", label, method, target, rec.Code, rec.Header().Get("Content-Type"))
	if v := rec.Header().Get("Retry-After"); v != "" {
		fmt.Fprintf(w.out, "Retry-After: %s\n", v)
	}
	if v := rec.Header().Get("Traceparent"); v != "" {
		fmt.Fprintf(w.out, "Traceparent: (%d bytes)\n", len(v))
	}
	w.out.Write(resp)
	if len(resp) == 0 || resp[len(resp)-1] != '\n' {
		w.out.WriteString("(no trailing newline)\n")
	}
	return rec.Body.Bytes()
}

// compareGolden checks got against testdata/<name>, or rewrites it under
// -update. On a mismatch it reports the first differing record.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := "testdata/" + name
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "--- "), strings.Split(string(want), "--- ")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			exp := "(nothing: the golden ends here)"
			if i < len(w) {
				exp = w[i]
			}
			t.Fatalf("wire differs from %s at record %d:\n got: %s\nwant: %s", path, i, g[i], exp)
		}
	}
	t.Fatalf("wire differs from %s: %d records recorded, golden has %d", path, len(g), len(w))
}

// wireSetup builds a private copy of the des design: the test renames pins,
// which the package's shared design cache must not see.
func wireSetup(t *testing.T) *exp.Setup {
	t.Helper()
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// soleFanin returns the skip-th endpoint whose pin has exactly one fan-in arc,
// with that arc and the fan-in arcs of the arc's source pin: annotating arc
// moves that endpoint by exactly the annotated amount.
func soleFanin(t *testing.T, s *exp.Setup, e *core.Engine, skip int) (ep int, arc int32, before []int32) {
	t.Helper()
	fanin := make(map[int32][]int32)
	for i, a := range s.Tab.Arcs {
		fanin[a.To] = append(fanin[a.To], int32(i))
	}
	for i, pin := range e.Endpoints() {
		if in := fanin[pin]; len(in) == 1 {
			if skip == 0 {
				return i, in[0], fanin[s.Tab.Arcs[in[0]].From]
			}
			skip--
		}
	}
	t.Fatal("no single-fan-in endpoint")
	return 0, 0, nil
}

// shiftArc is an ECO that adds d to both transitions of arc.
func shiftArc(e *core.Engine, arc int32, d float64) server.ArcECO {
	r, f := e.ArcDelay(arc, 0), e.ArcDelay(arc, 1)
	r.Mean += d
	f.Mean += d
	return server.ArcECO{Arc: arc, Rise: r, Fall: f}
}

func TestWireGolden(t *testing.T) {
	s := wireSetup(t)
	opt := core.Options{TopK: 8, Workers: 2, Tau: 0.05}
	buffer := server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: firstNetArc(t, s, 0), Frac: 0.4}}}
	var out bytes.Buffer
	for _, kind := range managerKinds {
		cache, err := snap.NewCache(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		mopt := server.Options{
			MaxSessions: 3,
			Snapshots:   cache,
			Boot:        &server.BootInfo{Mode: "cold", SnapshotKey: "wire-key", ColdBuildMS: 12},
		}
		var e *core.Engine
		if kind.corners {
			be, err := batch.New(s.Tab, batch.DefaultScenarios(), opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(be.Close)
			mopt.Batch = be
		} else {
			if e, err = core.NewEngine(s.Tab, opt); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Close)
		}
		mgr := server.NewManager(e, s.Ref, mopt)
		t.Cleanup(mgr.Close)
		e = mgr.Engine()

		// The three worst endpoints get pin names the string encoder must
		// escape: HTML-sensitive bytes and a JS line separator.
		base := mgr.BaseSlacks()
		for _, name := range []string{"u1/<D>", "a&b/D", "q\u2028r/D"} {
			worst := 0
			for i, v := range base {
				if v < base[worst] {
					worst = i
				}
			}
			s.Ref.D.Pins[e.Endpoints()[worst]].Name = name
			base[worst] = math.Inf(1)
		}

		k := kind.name
		w := &wireTranscript{t: t, h: server.New(mgr, "des").Handler(), out: &out}
		w.do(k, "GET", "/healthz", nil)
		w.do(k, "GET", "/slacks", nil)
		w.do(k, "GET", "/slacks?worst=3", nil)
		w.do(k, "GET", "/slacks?scenario=ss&worst=1", nil)
		w.do(k, "GET", "/slacks?scenario=merged", nil)
		w.do(k, "GET", "/slacks?scenario=nope", nil)
		w.do(k, "GET", "/gradients?top=2", nil)
		w.do(k, "POST", "/session", nil)
		w.do(k, "GET", "/session/s1", nil)
		w.do(k, "GET", "/session/nope", nil)

		// An ECO that re-states an arc's delay changes no endpoint; one that
		// slows the arc does; a resize goes through estimate_eco.
		_, arc0, _ := soleFanin(t, s, e, 0)
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Arcs: []server.ArcECO{shiftArc(e, arc0, 0)}})
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Arcs: []server.ArcECO{shiftArc(e, arc0, 25)}})
		w.do(k, "POST", "/session/s1/eco", resizeECOs(s, 31, 1)[0])
		w.do(k, "POST", "/session/s1/rollback", nil)

		// Float decades: steer three endpoints' slacks to about 1e-7 (exponent
		// form below 1e-6, the exponent's leading zero dropped), to 1e21
		// (exponent form from there up) and to +Inf (the arrival underflows to
		// -Inf: an untimed endpoint, clamped to 1e30 on the wire).
		ep1, arc1, _ := soleFanin(t, s, e, 1)
		_, arc2, _ := soleFanin(t, s, e, 2)
		_, arc3, before3 := soleFanin(t, s, e, 3)
		huge, gone := num.Dist{Mean: -1e21}, num.Dist{Mean: -math.MaxFloat64}
		decades := []server.ArcECO{
			shiftArc(e, arc1, mgr.BaseSlacks()[ep1]-1e-7),
			{Arc: arc2, Rise: huge, Fall: huge},
			{Arc: arc3, Rise: gone, Fall: gone},
		}
		for _, a := range before3 {
			decades = append(decades, server.ArcECO{Arc: a, Rise: gone, Fall: gone})
		}
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Arcs: decades})
		w.do(k, "GET", "/session/s1/slacks", nil)
		w.do(k, "GET", "/session/s1/slacks?scenario=ff", nil)
		w.do(k, "GET", "/session/s1/slacks?scenario=nope", nil)
		w.do(k, "POST", "/session/s1/rollback", nil)

		// Every refusal.
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{})
		w.do(k, "POST", "/session/s1/eco", `{"arcs":[{"arc":`)
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Arcs: []server.ArcECO{{Arc: 1 << 30}}})
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Resizes: []server.ResizeReq{{Cell: "no<such>cell", Lib: "X"}}})
		w.do(k, "POST", "/session/s1/eco", `{"resizes":[{"cell":"`+strings.Repeat("a", 8<<20)+`"}]}`)
		w.do(k, "POST", "/session/s1/topo", server.TopoRequest{})
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Arcs: []server.ArcECO{shiftArc(e, arc0, 5)}})
		w.do(k, "POST", "/session/s1/topo", buffer) // 409: uncommitted annotations
		w.do(k, "POST", "/session/s1/commit", nil)
		w.do(k, "GET", "/slacks?worst=2", nil)

		// Structural edits: preview, another session's commit conflicting it,
		// rollback, commit.
		w.do(k, "POST", "/session", nil)
		w.do(k, "POST", "/session/s2/topo", buffer)
		w.do(k, "GET", "/session/s2", nil)
		w.do(k, "POST", "/session/s1/eco", server.ECORequest{Arcs: []server.ArcECO{shiftArc(e, arc0, 1)}})
		w.do(k, "POST", "/session/s1/commit", nil)
		w.do(k, "POST", "/session/s2/commit", nil) // 409: base moved
		w.do(k, "POST", "/session/s2/rollback", nil)
		w.do(k, "POST", "/session/s2/topo", buffer)
		w.do(k, "POST", "/session/s2/commit", nil)

		// The admission cap, delete, snapshot save, and /healthz afterwards.
		w.do(k, "POST", "/session", nil)
		w.do(k, "POST", "/session", nil) // 503 + Retry-After
		w.do(k, "DELETE", "/session/s3", nil)
		w.do(k, "POST", "/admin/snapshot", nil)
		w.do(k, "GET", "/healthz", nil)
	}

	// No reference engine, no snapshot cache, no corners: the 501s, and
	// endpoints without pin names.
	e, err := core.NewEngine(s.Tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	bare := server.NewManager(e, nil, server.Options{})
	w := &wireTranscript{t: t, h: server.New(bare, "des").Handler(), out: &out}
	w.do("bare", "POST", "/session", nil)
	w.do("bare", "POST", "/session/s1/eco", server.ECORequest{Resizes: []server.ResizeReq{{Cell: "c", Lib: "l"}}})
	w.do("bare", "GET", "/slacks?scenario=ss", nil)
	w.do("bare", "GET", "/slacks?worst=1", nil)
	w.do("bare", "POST", "/admin/snapshot", nil)
	w.do("bare", "GET", "/healthz", nil)

	// The request shell on: trace identity echoed on work routes only, and
	// /healthz grows its slo and flight_recorder sections.
	w = &wireTranscript{t: t, h: wireObsHandler(bare, obs.NewTracer()), out: &out}
	w.do("shell", "GET", "/slacks", nil)
	w.do("shell", "POST", "/session/nope/commit", nil)
	w.do("shell", "GET", "/healthz", nil)
	compareGolden(t, "wire.golden", out.Bytes())
}

// wireObsHandler serves mgr with the request shell on: tracer tr, a flight
// recorder and an SLO tracker no request in these tests can breach.
func wireObsHandler(mgr *server.Manager, tr *obs.Tracer) http.Handler {
	srv := server.New(mgr, "des")
	srv.Observe(shell.New(shell.Options{Tracer: tr, FlightSize: 64, FlightPin: time.Hour, SLOObjective: time.Hour}))
	return srv.Handler()
}
