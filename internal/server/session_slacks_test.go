package server_test

// GET /session/{id}/slacks stitches its array from cached text instead of
// encoding it: these tests hold the body to encoding/json's bytes through
// every way a session's view and the base under it can change, and count what
// a read formats.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"insta/internal/core"
	"insta/internal/server"
)

// sessionSlacksWire is the GET /session/{id}/slacks body as wire.go declares
// it, array included, for encoding/json to encode whole.
type sessionSlacksWire struct {
	ID         string    `json:"id"`
	Scenario   string    `json:"scenario,omitempty"`
	Slacks     []float64 `json:"slacks"`
	TNS        float64   `json:"tns"`
	Violations int       `json:"violations"`
	WNS        float64   `json:"wns"`
}

// marshalSessionSlacks is the body the daemon must answer for a session whose
// view in scn is slacks (unclamped, as the session API returns them).
func marshalSessionSlacks(t testing.TB, id, scn string, slacks []float64) []byte {
	t.Helper()
	v := sessionSlacksWire{ID: id, Scenario: scn, Slacks: make([]float64, len(slacks))}
	for i, sl := range slacks {
		v.Slacks[i] = sl
		if math.IsInf(sl, 0) {
			v.Slacks[i] = math.Copysign(1e30, sl)
		}
		if sl < 0 {
			v.Violations++
			v.TNS += sl
			v.WNS = min(v.WNS, sl)
		}
	}
	body, err := json.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

func getSessionSlacks(t testing.TB, h http.Handler, id, scn string) []byte {
	t.Helper()
	target := "/session/" + id + "/slacks"
	if scn != "" {
		target += "?scenario=" + scn
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET %s: status %d: %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// kindViews are the scenario names a session of either kind of daemon can read.
func kindViews(corners bool) []string {
	if corners {
		return []string{"", "ss", "tt", "ff", "merged"}
	}
	return []string{""}
}

// slowArcs is an ECO that scales the delay of n arcs, spread over the design
// from arc start, by scale.
func slowArcs(e *core.Engine, arcs, start, n int, scale float64) server.ECORequest {
	var req server.ECORequest
	for i := 0; i < n; i++ {
		a := int32((start + i*(arcs/n)) % arcs)
		r, f := e.ArcDelay(a, 0), e.ArcDelay(a, 1)
		r.Mean *= scale
		f.Mean *= scale
		req.Arcs = append(req.Arcs, server.ArcECO{Arc: a, Rise: r, Fall: f})
	}
	return req
}

// TestSessionSlacksBodyIsEncodingJSON (run under -race by ci.sh): one
// goroutine drives random interleavings of create, one-arc and 512-arc ECOs,
// reads of every view, commits, rollbacks, closes and structural edits with
// their commits, and every read it makes answers json.Marshal of the typed
// body, array and all, plus the newline. Four more read sessions of their own
// — each holding a preview the commits keep rebasing — meanwhile: a read
// between two looks at an unchanged epoch must be those bytes too, and any
// read must be JSON that encoding/json writes back unchanged.
func TestSessionSlacksBodyIsEncodingJSON(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 120
	}
	for _, kind := range managerKinds {
		t.Run(kind.name, func(t *testing.T) {
			mgr, s := newKindManager(t, kind.corners, "des", 6, 2, server.Options{})
			defer mgr.Close()
			mgr.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil))) // a line per commit
			h := server.New(mgr, "des").Handler()
			views := kindViews(kind.corners)
			arcs := mgr.Engine().NumArcs() // edits only append: these ids stay good

			done := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				sess, err := mgr.Create()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.ApplyECO(slowArcs(mgr.Engine(), arcs, 11+r*101, 1, 1.5)); err != nil {
					t.Fatal(err)
				}
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						scn := views[(r+i)%len(views)]
						before := mgr.Epoch()
						want, err := sess.ScenarioSlacksInto(scn, nil)
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						body := getSessionSlacks(t, h, sess.ID, scn)
						if mgr.Epoch() == before {
							if exp := marshalSessionSlacks(t, sess.ID, scn, want); !bytes.Equal(body, exp) {
								t.Errorf("reader %d, view %q: body is not json.Marshal of the session's view\n got: %.200s\nwant: %.200s", r, scn, body, exp)
								return
							}
							continue
						}
						var back sessionSlacksWire
						if err := json.Unmarshal(body, &back); err != nil {
							t.Errorf("reader %d, view %q: %v", r, scn, err)
							return
						}
						if exp := marshalSessionSlacks(t, back.ID, back.Scenario, back.Slacks); !bytes.Equal(body, exp) {
							t.Errorf("reader %d, view %q: body is not what encoding/json writes for its own values\n got: %.200s\nwant: %.200s", r, scn, body, exp)
							return
						}
					}
				}(r)
			}

			rng := rand.New(rand.NewSource(23))
			var live []*server.Session
			edits := 0
			for step := 0; step < steps && !t.Failed(); step++ {
				if len(live) == 0 {
					sess, err := mgr.Create()
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, sess)
				}
				at := rng.Intn(len(live))
				sess := live[at]
				switch op := rng.Intn(14); {
				case op == 0 && len(live) < 6:
					sess, err := mgr.Create()
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, sess)
				case op == 1 && len(live) > 1:
					sess.Close()
					live = append(live[:at], live[at+1:]...)
				case op <= 3:
					// A refusal (the base moved under structural edits) is
					// answered the way a client would.
					if _, err := sess.ApplyECO(slowArcs(mgr.Engine(), arcs, rng.Intn(arcs), 1, 0.5+rng.Float64())); err != nil {
						_ = sess.Rollback()
					}
				case op == 4:
					if _, err := sess.ApplyECO(slowArcs(mgr.Engine(), arcs, rng.Intn(arcs), 512, 0.9+rng.Float64()/4)); err != nil {
						_ = sess.Rollback()
					}
				case op == 5:
					if _, err := sess.Commit(); err != nil {
						_ = sess.Rollback()
					}
				case op == 6:
					if err := sess.Rollback(); err != nil {
						t.Fatal(err)
					}
				case op == 7:
					edit := server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: firstNetArc(t, s, edits), Frac: 0.5}}}
					edits++
					if _, err := sess.ApplyTopo(edit); err != nil {
						_ = sess.Rollback()
						break
					}
					for _, scn := range views { // the working engine's view, before it is the base
						want, err := sess.ScenarioSlacksInto(scn, nil)
						if err != nil {
							t.Fatal(err)
						}
						if body, exp := getSessionSlacks(t, h, sess.ID, scn), marshalSessionSlacks(t, sess.ID, scn, want); !bytes.Equal(body, exp) {
							t.Fatalf("step %d, structural session, view %q: body is not json.Marshal of the session's view\n got: %.200s\nwant: %.200s", step, scn, body, exp)
						}
					}
					if rng.Intn(2) == 0 {
						if _, err := sess.Commit(); err != nil {
							_ = sess.Rollback()
						}
					}
				default:
					scn := views[rng.Intn(len(views))]
					want, err := sess.ScenarioSlacksInto(scn, nil)
					if errors.Is(err, server.ErrStructuralConflict) {
						_ = sess.Rollback()
						break
					} else if err != nil {
						t.Fatal(err)
					}
					if body, exp := getSessionSlacks(t, h, sess.ID, scn), marshalSessionSlacks(t, sess.ID, scn, want); !bytes.Equal(body, exp) {
						t.Fatalf("step %d, view %q: body is not json.Marshal of the session's view\n got: %.200s\nwant: %.200s", step, scn, body, exp)
					}
				}
			}
			close(done)
			readers.Wait()
			if mgr.TopoGen() == 0 || mgr.Epoch() < 5 {
				t.Fatalf("the interleaving committed %d times, %d of them structural: it did not cover what it is for", mgr.Epoch(), mgr.TopoGen())
			}
			c := scrapeSlackText(t, h)
			t.Logf("%s: %d endpoints copied, %d formatted, %d lane renders, %d bytes held", kind.name, c.hits, c.formats, c.rebuilds, c.bytes)
		})
	}
}

type slackTextCounters struct{ hits, formats, rebuilds, bytes int }

// scrapeSlackText reads the slack text cache's counters off /metrics.
func scrapeSlackText(t testing.TB, h http.Handler) (c slackTextCounters) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	found := 0
	for _, ln := range strings.Split(rec.Body.String(), "\n") {
		for name, dst := range map[string]*int{
			"insta_slack_text_hits_total": &c.hits, "insta_slack_text_formats_total": &c.formats,
			"insta_slack_text_rebuilds_total": &c.rebuilds, "insta_slack_text_bytes": &c.bytes,
		} {
			if n, _ := fmt.Sscanf(ln, name+" %d", dst); n == 1 {
				found++
			}
		}
	}
	if found != 4 {
		t.Fatalf("/metrics has %d of the 4 insta_slack_text series:\n%s", found, rec.Body)
	}
	return c
}

// TestSlackTextCountsWhatMoved is the cache's gate, in counts rather than
// time: a read of a fresh session formats no float; a read after a one-arc
// ECO formats exactly the endpoints whose bits it moved in that view; the
// first read after a commit renders the lane once more and the second
// formats nothing; and a lane is rendered when it is first read, not before.
func TestSlackTextCountsWhatMoved(t *testing.T) {
	for _, kind := range managerKinds {
		mgr, _ := newKindManager(t, kind.corners, "des", 6, 2, server.Options{})
		h := server.New(mgr, "des").Handler()
		sess, err := mgr.Create()
		if err != nil {
			t.Fatal(err)
		}
		n := len(mgr.Engine().Endpoints())
		if c := scrapeSlackText(t, h); c != (slackTextCounters{}) {
			t.Fatalf("%s: counters before any read: %+v", kind.name, c)
		}
		// read reads one view and checks what the counters moved by.
		read := func(what, scn string, formats, rebuilds int) {
			t.Helper()
			before := scrapeSlackText(t, h)
			getSessionSlacks(t, h, sess.ID, scn)
			after := scrapeSlackText(t, h)
			got := slackTextCounters{after.hits - before.hits, after.formats - before.formats, after.rebuilds - before.rebuilds, 0}
			if want := (slackTextCounters{n - formats, formats, rebuilds, 0}); got != want {
				t.Errorf("%s, %s, view %q: copied/formatted/rendered %+v, want %+v", kind.name, what, scn, got, want)
			}
		}
		lanes := 0
		for _, scn := range kindViews(kind.corners) {
			rebuilds := 1
			if scn == "tt" { // the nominal lane, rendered by the read of ""
				rebuilds = 0
			}
			lanes += rebuilds
			read("fresh session", scn, 0, rebuilds)
			read("fresh session again", scn, 0, 0)
		}
		// Per endpoint and lane read: the slack, an offset, some 17 bytes of text.
		if c := scrapeSlackText(t, h); c.bytes < lanes*n*20 || c.bytes > lanes*n*48 {
			t.Errorf("%s: %d bytes held for %d lanes of %d endpoints", kind.name, c.bytes, lanes, n)
		}
		arcs := mgr.Engine().NumArcs()
		bitsMoved := func(scn string) (moved int) {
			t.Helper()
			base, err := mgr.BaseViewInto(scn, nil)
			if err != nil {
				t.Fatal(err)
			}
			view, err := sess.ScenarioSlacksInto(scn, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range view {
				if math.Float64bits(view[i]) != math.Float64bits(base.Slacks[i]) {
					moved++
				}
			}
			return moved
		}
		for a := 0; bitsMoved("") == 0; a += 37 { // the first arc whose slowing reaches an endpoint
			if err := sess.Rollback(); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.ApplyECO(slowArcs(mgr.Engine(), arcs, a, 1, 3)); err != nil {
				t.Fatal(err)
			}
		}
		for _, scn := range kindViews(kind.corners) {
			read("after a one-arc ECO", scn, bitsMoved(scn), 0)
		}
		if _, err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, scn := range kindViews(kind.corners) {
			rebuilds := 1
			if scn == "tt" {
				rebuilds = 0
			}
			read("first read after the commit", scn, 0, rebuilds)
			read("second read after the commit", scn, 0, 0)
		}
	}
}
