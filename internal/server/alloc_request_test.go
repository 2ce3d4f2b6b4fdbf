//go:build !race

package server_test

// Not under -race: the race detector makes sync.Pool drop a share of what is
// put back, so the pooled encoder and slack buffers reallocate at random.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"insta/internal/obs"
	"insta/internal/server"
)

// nullWriter is a ResponseWriter that keeps nothing, so a measured handler's
// allocations are its own.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// TestServeAllocsPerRequest holds the server-side allocations of the four
// requests the benchmark's traffic is made of — a one-arc ECO preview, a
// session slack read, a base read and a session create — and of a slack read
// of a session whose preview moved endpoints, measured through the
// handler (mux dispatch, decode, session, encode) with pre-built requests and
// a writer that keeps nothing, on both kinds of daemon, with the request shell
// off (what `server.New` alone serves) and on (what a daemon serves: dormant
// tracer, flight recorder, SLO tracker).
//
// The limits are what the handlers allocate now; the first column is what
// they allocated before a route bound the request counter of its usual status
// once (it built a label key and the status text per request) and the slack
// reads stopped parsing an absent query string (the base read parsed its
// query twice and built a strconv error for an absent ?worst).
//
//	                         single      {ss,tt,ff}
//	shell off  eco            7 ->  5      8 ->  6
//	           session read   7 ->  4      7 ->  4
//	           base read      8 ->  3      9 ->  4
//	           create         9 ->  7      9 ->  7
//	           moved read     7 ->  4      7 ->  4
//	shell on   eco            9 ->  7     10 ->  8
//	           session read   9 ->  6      9 ->  6
//	           base read     10 ->  5     11 ->  6
//	           create        11 ->  9     11 ->  9
//	           moved read     9 ->  6      9 ->  6
func TestServeAllocsPerRequest(t *testing.T) {
	const runs = 40
	limits := map[bool][2][5]float64{ // corners -> shell off, on -> eco, session read, base read, create, moved read
		false: {{5, 4, 3, 7, 4}, {7, 6, 5, 9, 6}},
		true:  {{6, 4, 4, 7, 4}, {8, 6, 6, 9, 6}},
	}
	dormant := obs.NewTracer()
	dormant.Disable()
	for _, kind := range managerKinds {
		mgr, _ := newKindManager(t, kind.corners, "des", 6, 1, server.Options{MaxSessions: 1 << 20})
		e := mgr.Engine()
		eco, err := json.Marshal(server.ECORequest{Arcs: []server.ArcECO{{Arc: 7, Rise: e.ArcDelay(7, 0), Fall: e.ArcDelay(7, 1)}}})
		if err != nil {
			t.Fatal(err)
		}
		for on, h := range []http.Handler{server.New(mgr, "des").Handler(), wireObsHandler(mgr, dormant)} {
			sess, err := mgr.Create()
			if err != nil {
				t.Fatal(err)
			}
			moved, err := mgr.Create()
			if err != nil {
				t.Fatal(err)
			}
			if res, err := moved.ApplyDeltas(arcDeltas(e, 0, 97, 1.05)); err != nil || len(res.Changed) == 0 {
				t.Fatalf("preview moved %d endpoints, err %v", len(res.Changed), err)
			}
			for i, rq := range []struct {
				name, method, target string
				body                 []byte
			}{
				{"eco", "POST", "/session/" + sess.ID + "/eco", eco},
				{"session read", "GET", "/session/" + sess.ID + "/slacks", nil},
				{"base read", "GET", "/slacks", nil},
				{"create", "POST", "/session", nil},
				{"moved read", "GET", "/session/" + moved.ID + "/slacks", nil},
			} {
				reqs := make([]*http.Request, runs+1) // AllocsPerRun warms up with one extra call
				for j := range reqs {
					reqs[j] = httptest.NewRequest(rq.method, rq.target, bytes.NewReader(rq.body))
				}
				w, next := &nullWriter{h: http.Header{}}, 0
				a := testing.AllocsPerRun(runs, func() {
					clear(w.h)
					h.ServeHTTP(w, reqs[next])
					next++
				})
				t.Logf("%s, shell on=%d, %s: %.1f allocs", kind.name, on, rq.name, a)
				if max := limits[kind.corners][on][i]; a > max+0.5 {
					t.Errorf("%s, shell on=%d, %s: %.1f allocs per request, want <= %.0f", kind.name, on, rq.name, a, max)
				}
			}
		}
	}
}

// TestSessionCycleAllocsPerECO holds what a short-lived session costs per ECO
// in process: Create, two ApplyECO batches — a 2-arc and a 64-arc one — and
// Close, over and over, on both kinds of daemon. A new session takes back the overlay the last one released, with
// the rows, index and wave scratch its cones grew, so what is left per ECO is
// the result it returns and the session's own bookkeeping, amortized. When
// only the row chunks and the index went round, every new session regrew the
// rest: 122 and 124 objects per ECO on the two kinds (3 and 4 now).
func TestSessionCycleAllocsPerECO(t *testing.T) {
	const ecos = 2
	limits := map[bool]float64{false: 4, true: 5}
	for _, kind := range managerKinds {
		mgr, _ := newKindManager(t, kind.corners, "des", 6, 1, server.Options{})
		e := mgr.Engine()
		batch := func(start, n int) server.ECORequest {
			var req server.ECORequest
			step := e.NumArcs() / n
			for i := 0; i < n; i++ {
				arc := int32(start + i*step)
				rise, fall := e.ArcDelay(arc, 0), e.ArcDelay(arc, 1)
				rise.Mean, fall.Mean = rise.Mean*1.3+1, fall.Mean*1.3+1
				req.Arcs = append(req.Arcs, server.ArcECO{Arc: arc, Rise: rise, Fall: fall})
			}
			return req
		}
		reqs := [ecos]server.ECORequest{batch(3, 2), batch(1, 64)}
		cycle := func() {
			sess, err := mgr.Create()
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range reqs {
				if res, err := sess.ApplyECO(req); err != nil || len(res.Changed) == 0 {
					t.Fatalf("%s: ECO moved %d endpoints, err %v", kind.name, len(res.Changed), err)
				}
			}
			sess.Close()
		}
		a := testing.AllocsPerRun(20, cycle) / ecos
		t.Logf("%s: %.1f allocs per ECO", kind.name, a)
		if max := limits[kind.corners]; a > max {
			t.Errorf("%s: %.1f allocs per ECO in fresh sessions, want <= %.0f", kind.name, a, max)
		}
		mgr.Close()
	}
}
