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
// session slack read, a base read and a session create — measured through the
// handler (mux dispatch, decode, session, encode) with pre-built requests and
// a writer that keeps nothing, on both kinds of daemon, with the request shell
// off (what `server.New` alone serves) and on (what a daemon serves: dormant
// tracer, flight recorder, SLO tracker).
//
// The limits are what the commit before the typed responses and the shared
// shell allocated (maps through the private encoder, the daemon's own status
// capture); what this one allocates is in the second column.
//
//	                         single      {ss,tt,ff}
//	shell off  eco           22 -> 21     23 -> 22
//	           session read  13 ->  7     13 ->  7
//	           base read     12 ->  8     15 ->  9
//	           create        14 -> 12     14 -> 12
//	shell on   eco           24 -> 23     25 -> 24
//	           session read  15 ->  9     15 ->  9
//	           base read     14 -> 10     17 -> 11
//	           create        16 -> 14     16 -> 14
func TestServeAllocsPerRequest(t *testing.T) {
	const runs = 40
	limits := map[bool][2][4]float64{ // corners -> shell off, on -> eco, session read, base read, create
		false: {{22, 13, 12, 14}, {24, 15, 14, 16}},
		true:  {{23, 13, 15, 14}, {25, 15, 17, 16}},
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
			for i, rq := range []struct {
				name, method, target string
				body                 []byte
			}{
				{"eco", "POST", "/session/" + sess.ID + "/eco", eco},
				{"session read", "GET", "/session/" + sess.ID + "/slacks", nil},
				{"base read", "GET", "/slacks", nil},
				{"create", "POST", "/session", nil},
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
