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
// The limits are what this commit allocates; the first column is what the one
// before it did, which built a json.Decoder per ECO body and an ECORequest
// whose Arcs grew by doubling (the body is now read into a pooled buffer and
// unmarshalled into a pooled request). The moved read is new: it allocates
// what the plain one does, because a float the lane's cached text does not
// cover is formatted without allocating.
//
//	                         single      {ss,tt,ff}
//	shell off  eco           21 -> 16     22 -> 17
//	           session read   7 ->  7      7 ->  7
//	           base read      8            9
//	           create        10           10
//	           moved read          7            7
//	shell on   eco           23 -> 18     24 -> 19
//	           session read   9 ->  9      9 ->  9
//	           base read     10           11
//	           create        12           12
//	           moved read          9            9
func TestServeAllocsPerRequest(t *testing.T) {
	const runs = 40
	limits := map[bool][2][5]float64{ // corners -> shell off, on -> eco, session read, base read, create, moved read
		false: {{16, 7, 8, 10, 7}, {18, 9, 10, 12, 9}},
		true:  {{17, 7, 9, 10, 7}, {19, 9, 11, 12, 9}},
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
