package fleet_test

// End-to-end over real backends: two genuine server.Manager replicas built
// from the same design, fronted by the pool. What the stub tests cannot
// check — that the proxied wire shapes are the real serving layer's, that a
// base read through the router is byte-identical to one straight off a
// replica, and that a full session lifecycle (create → ECO preview → session
// slacks → rollback → delete) survives the fleet ID rewrite.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/fleet"
	"insta/internal/num"
	"insta/internal/server"
)

func TestFleetOverRealServers(t *testing.T) {
	spec, err := bench.BlockSpec("des")
	if err != nil {
		if spec, err = bench.IWLSSpec("des"); err != nil {
			t.Fatalf("unknown preset: %v", err)
		}
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	var urls []string
	for i := 0; i < 2; i++ {
		e, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: 2, Tau: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		mgr := server.NewManager(e, s.Ref, server.Options{MaxSessions: 16})
		lr := httptest.NewServer(server.New(mgr, "des").Handler())
		t.Cleanup(lr.Close)
		urls = append(urls, lr.URL)
	}
	p, err := fleet.New(urls, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	// A base read through the router must be byte-identical to one straight
	// off a replica — the proxy streams, it does not re-encode.
	direct := getBodyBytes(t, urls[0]+"/slacks")
	routed := getBodyBytes(t, rt.URL+"/slacks")
	if !bytes.Equal(direct, routed) {
		t.Fatalf("routed base read differs from direct read:\ndirect: %.200s\nrouted: %.200s", direct, routed)
	}

	// Full session lifecycle through the fleet ID rewrite, with a real
	// resize-form ECO resolved via the reference netlist.
	fid := createSession(t, rt.URL)
	cl := bench.Changelist(s.B, 7, 1)
	eco := server.ECORequest{Resizes: []server.ResizeReq{{
		Cell: s.B.D.Cells[cl[0].Cell].Name,
		Lib:  s.B.Lib.Cell(cl[0].NewLib).Name,
	}}}
	body, _ := json.Marshal(eco)
	if code := do(t, http.MethodPost, rt.URL+"/session/"+fid+"/eco", body); code != http.StatusOK {
		t.Fatalf("eco through router: status %d", code)
	}
	var sl struct {
		WNS        float64 `json:"wns"`
		Violations int     `json:"violations"`
		Slacks     []any   `json:"slacks"`
	}
	resp, err := http.Get(rt.URL + "/session/" + fid + "/slacks")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session slacks through router: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sl.Slacks) == 0 {
		t.Fatal("session slacks empty through router")
	}
	if code := do(t, http.MethodPost, rt.URL+"/session/"+fid+"/rollback", nil); code != http.StatusOK {
		t.Fatalf("rollback through router: status %d", code)
	}
	if code := do(t, http.MethodDelete, rt.URL+"/session/"+fid, nil); code != http.StatusOK {
		t.Fatalf("delete through router: status %d", code)
	}

	// The replicas end the test with no resident sessions. Health() is the
	// cached last probe, which may predate the delete — wait for a probe
	// that has seen it.
	for _, r := range p.Replicas() {
		eventually(t, time.Second, "replica session count to drain", func() bool {
			h := r.Health()
			return !h.OK || h.LiveSessions == 0
		})
	}
}

func getBodyBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInprocFleetServesCorners is what `insta-router -mode inproc -corners
// ss,tt,ff` stands up — server.Daemons assembled from the daemon flag set, the
// way both mains now construct them — and what the router binary could not
// start before it registered that flag set: a multi-corner fleet. A session
// read in one corner and an ECO's per-scenario rows must come through the
// router byte for byte as a lone daemon with the same flags answers them.
func TestInprocFleetServesCorners(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	df := cmdutil.DaemonFlags(fs)
	if err := fs.Parse([]string{"-design", "des", "-topk", "8", "-workers", "2", "-corners", "ss,tt,ff"}); err != nil {
		t.Fatal(err)
	}
	bt, err := df.Boot(nil)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 3; i++ { // two replicas and the lone daemon
		d, err := server.NewDaemon(bt, df, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close(context.Background()) })
		urls = append(urls, "http://"+d.Addr())
	}
	lone := urls[2]
	p, err := fleet.New(urls[:2], fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	// Each side's first session is s1 on the daemon that holds it, so the
	// bodies, which carry the daemon-local id, can be compared whole.
	fid := createSession(t, rt.URL)
	id := createSession(t, lone)
	a := bt.Tables().Arcs[7]
	eco, _ := json.Marshal(server.ECORequest{Arcs: []server.ArcECO{{
		Arc:  7,
		Rise: num.Dist{Mean: a.MeanRise * 1.5, Std: a.StdRise},
		Fall: num.Dist{Mean: a.MeanFall * 1.5, Std: a.StdFall},
	}}})
	post := func(url string) []byte {
		resp, err := http.Post(url, "application/json", bytes.NewReader(eco))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, err %v", url, resp.StatusCode, err)
		}
		return b
	}
	routed, direct := post(rt.URL+"/session/"+fid+"/eco"), post(lone+"/session/"+id+"/eco")
	var res server.ECOResult
	if err := json.Unmarshal(routed, &res); err != nil || len(res.Scenarios) != 4 || len(res.Changed) == 0 {
		t.Fatalf("ECO through the router carries no ss/tt/ff/merged rows or moved nothing: %s (err %v)", routed, err)
	}
	if !bytes.Equal(routed, direct) {
		t.Fatalf("ECO through the router differs from the lone daemon's:\nrouted: %s\ndirect: %s", routed, direct)
	}
	routed, direct = getBodyBytes(t, rt.URL+"/session/"+fid+"/slacks?scenario=ss"), getBodyBytes(t, lone+"/session/"+id+"/slacks?scenario=ss")
	if !bytes.Equal(routed, direct) {
		t.Fatalf("?scenario=ss through the router differs from the lone daemon's:\nrouted: %.300s\ndirect: %.300s", routed, direct)
	}
	if nominal := getBodyBytes(t, lone+"/session/"+id+"/slacks"); bytes.Equal(nominal, direct) {
		t.Fatal("?scenario=ss answered the nominal lane")
	}
}
