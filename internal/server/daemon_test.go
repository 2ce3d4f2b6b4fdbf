package server_test

// server.Daemon: the one assembly of a serving daemon and, above all, its one
// teardown.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"insta/internal/cmdutil"
	"insta/internal/server"
)

// bootDaemon boots the des preset as the daemon flag set in args describes
// and starts a daemon over it on a loopback port.
func bootDaemon(t *testing.T, args ...string) (*server.Daemon, *cmdutil.Boot, string) {
	t.Helper()
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	df := cmdutil.DaemonFlags(fs)
	if err := fs.Parse(append([]string{"-design", "des", "-topk", "8", "-workers", "2"}, args...)); err != nil {
		t.Fatal(err)
	}
	bt, err := df.Boot(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := server.NewDaemon(bt, df, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return d, bt, "http://" + d.Addr()
}

// TestDaemonCloseReleasesCommittedEngine is the leak the hand-assembled
// teardowns had: a structural commit installs a new engine that only
// Manager.Close releases, and nothing in cmd/ called it — the router's inproc
// swap closed the boot engine instead, stranding the installed engine's
// scheduler pool for the life of the process, and its shutdown skipped the
// snapshot save. Through Daemon.Close both engines' pools are gone (the
// goroutine count is back where it was before the daemon existed) and the
// snapshot cache holds the committed, structurally edited base.
func TestDaemonCloseReleasesCommittedEngine(t *testing.T) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	post := func(url string, body, into any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	d, bt, url := bootDaemon(t, "-snapshot-dir", t.TempDir())
	arcs := d.Manager().Engine().NumArcs()
	netArc := int32(-1)
	for i, a := range bt.Tab.Arcs {
		if a.Kind == 1 {
			netArc = int32(i)
			break
		}
	}

	var created server.Created
	post(url+"/session", nil, &created)
	var edit server.TopoResult
	post(url+"/session/"+created.ID+"/topo", server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: netArc, Frac: 0.4}}}, &edit)
	var commit server.ECOResult
	post(url+"/session/"+created.ID+"/commit", nil, &commit)
	if !commit.Committed || d.Manager().TopoGen() != 1 || d.Manager().Engine().NumArcs() != arcs+2 {
		t.Fatalf("structural commit did not install an engine: %+v, topoGen %d", commit, d.Manager().TopoGen())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-d.ServeErr(); err != http.ErrServerClosed {
		t.Fatalf("listener stopped with %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the daemon, %d after its Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
	snp, err := bt.Cache.Load(bt.Key)
	if err != nil || snp == nil {
		t.Fatalf("no snapshot under the boot key after Close: %v", err)
	}
	if got := len(snp.State.Tables().Arcs); got != arcs+2 {
		t.Fatalf("the saved base has %d arcs, want the committed %d", got, arcs+2)
	}
}

// TestDaemonRefusesReservedScenarioNames: a server reads scenario "" as its
// nominal lane and "merged" as the worst-corner row, so a -corners list
// naming either would list two "merged" rows or a lane no query can reach. A
// daemon started with one fails at construction.
func TestDaemonRefusesReservedScenarioNames(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	df := cmdutil.DaemonFlags(fs)
	if err := fs.Parse([]string{"-design", "des", "-topk", "4", "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	bt, err := df.Boot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"ss,merged:1.2/1/1", ":1.2/1/1", "hot:NaN/1/1"} {
		df.Corners.Spec = spec
		d, err := server.NewDaemon(bt, df, nil)
		if err == nil {
			d.Close(context.Background())
			t.Fatalf("-corners %s: daemon constructed", spec)
		}
		if !strings.Contains(err.Error(), "corners") {
			t.Fatalf("-corners %s: error %q does not name the flag", spec, err)
		}
	}
}
