package fleet_test

// TestWireGolden pins the bytes of every JSON body the router itself writes —
// create, /healthz in its three states, /debug/fleet, the swap report and each
// refusal — replayed through the pool's handler over one stub replica and
// compared with testdata/wire.golden. The goldens were recorded at the commit
// before the bodies became typed structs behind the daemon's writer (they were
// json.Marshal over maps then). Re-record with
//
//	go test ./internal/fleet -run TestWireGolden -update
//
// only when the wire format is meant to change.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"insta/internal/fleet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's responses")

// wireMasks blank what legitimately differs between two runs of one build:
// clocks, loopback ports and the port-salted session key.
var wireMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(uptime_s|total_ms)":[0-9.e+-]+`), `"$1":0`},
	{regexp.MustCompile(`"drain_ms":\[[0-9.e+-]+\]`), `"drain_ms":[0]`},
	{regexp.MustCompile(`127\.0\.0\.1:[0-9]+`), `127.0.0.1:0`},
	{regexp.MustCompile(`[0-9a-f]{16}\.s`), `KEY.s`},
	// A bad SLO sample is a 5xx or a request slower than the objective, a
	// pinned one a 5xx or one slower than the pin threshold; only the 5xx
	// repeat.
	{regexp.MustCompile(`"pinned":[0-9]+`), `"pinned":0`},
	{regexp.MustCompile(`"bad":[0-9]+,"bad_fraction":[0-9.e+-]+,"burn_rate":[0-9.e+-]+`), `"bad":0,"bad_fraction":0,"burn_rate":0`},
}

func wireMask(b []byte) []byte {
	for _, m := range wireMasks {
		b = m.re.ReplaceAll(b, []byte(m.with))
	}
	return b
}

// wireDo replays one request against h and appends the status line, the
// headers the API promises and the masked body to out.
func wireDo(out *bytes.Buffer, h http.Handler, method, target string, body []byte) []byte {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	fmt.Fprintf(out, "--- %s %s\n%d %s\n", method, wireMask([]byte(target)), rec.Code, rec.Header().Get("Content-Type"))
	if v := rec.Header().Get("Retry-After"); v != "" {
		fmt.Fprintf(out, "Retry-After: %s\n", v)
	}
	if v := rec.Header().Get("Traceparent"); v != "" {
		fmt.Fprintf(out, "Traceparent: (%d bytes)\n", len(v))
	}
	out.Write(wireMask(rec.Body.Bytes()))
	return rec.Body.Bytes()
}

func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	opt := fastOpts()
	opt.DisableHedge = true
	var locals []*swapServer
	opt.Swap = func(ctx context.Context, r *fleet.Replica) error {
		locals[r.ID].SetHandler(newStub(0, 2))
		return nil
	}
	p, _, locals, _ := newStubFleet(t, 1, opt)
	h := p.Handler()
	do := func(method, target string, body []byte) []byte { return wireDo(&out, h, method, target, body) }

	do("GET", "/healthz", nil)
	created := do("POST", "/session", nil)
	fid := string(created[len(`{"epoch":1,"id":"`) : len(`{"epoch":1,"id":"`)+16+len(".s1")])
	do("GET", "/session/"+fid, nil) // the replica's body, passed through
	do("GET", "/slacks", nil)
	do("GET", "/session/nokey", nil)
	do("POST", "/session/"+fid+"/eco", bytes.Repeat([]byte("a"), 16<<20+1))
	do("GET", "/debug/trace/xyz", nil)
	do("GET", "/debug/fleet", nil)
	do("DELETE", "/session/"+fid, nil)
	do("POST", "/admin/swap", nil)
	do("GET", "/healthz", nil)

	p.SetDraining(true)
	do("POST", "/session", nil)
	do("GET", "/slacks", nil)
	do("GET", "/healthz", nil)
	p.SetDraining(false)

	// The replica dies: a session request is a 502 at once, and after the
	// health loop's two strikes nothing is ready.
	fid = string(do("POST", "/session", nil)[len(`{"epoch":2,"id":"`):][:16+len(".s1")])
	locals[0].Close()
	do("GET", "/session/"+fid, nil)
	eventually(t, 5*time.Second, "the replica to go unready", func() bool { return !p.Replicas()[0].Ready() })
	do("POST", "/session", nil)
	do("GET", "/slacks", nil)
	do("GET", "/healthz", nil)

	// A pool without a swap function.
	p2, _, _, _ := newStubFleet(t, 1, fastOpts())
	wireDo(&out, p2.Handler(), "POST", "/admin/swap", nil)

	path := "testdata/wire.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(out.String(), "--- "), strings.Split(string(want), "--- ")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			t.Fatalf("wire differs from %s at record %d:\n got: %s\nwant: %s", path, i, g[i], strings.Join(w[min(i, len(w)):min(i+1, len(w))], ""))
		}
	}
	if len(g) != len(w) {
		t.Fatalf("wire differs from %s: %d records recorded, golden has %d", path, len(g), len(w))
	}
}
