// Command insta-served is the serving daemon over one design: it runs the
// one-time initialization (reference signoff + INSTA extraction + full
// propagation) at startup, then serves concurrent what-if timing queries
// over HTTP/JSON through copy-on-write ECO sessions (see internal/server and
// DESIGN.md §8).
//
//	insta-served -design block-2 -addr :8080
//	insta-served -dir /path/to/design -topk 16
//	insta-served -design block-2 -corners ss,tt,ff
//	insta-served -design block-2 -snapshot-dir ~/.cache/insta
//
// With -snapshot-dir the daemon boots through the content-addressed snapshot
// cache (internal/snap): the first start cold-builds and writes a compiled
// snapshot back; every later start with the same inputs decodes it from disk
// in milliseconds, skipping the reference signoff entirely (warm boots serve
// without a reference engine — resize-form ECOs answer 501 until a cold
// start). POST /admin/snapshot persists the current committed base — after a
// session of committed ECOs, the next boot warm-starts into the ECO'd state.
// /healthz reports the boot mode, snapshot key and load/build wall time.
//
// Endpoints: POST /session, POST /session/{id}/eco, POST
// /session/{id}/commit, POST /session/{id}/rollback, GET/DELETE
// /session/{id}, GET /session/{id}/slacks, GET /slacks, GET /gradients, GET
// /healthz, GET /metrics, plus the debug surface: GET /debug/pprof/*, GET
// /debug/trace?dur= (windowed Chrome trace capture) and GET
// /debug/flightrecorder (the always-on request ring with pinned anomalies;
// -flight-size/-flight-pin tune it, -slo-objective/-slo-budget set the
// burn-rate objective surfaced on /healthz and /metrics). SIGINT/SIGTERM
// drains in-flight requests before exiting — and, with -snapshot-dir, saves
// the committed base back to the cache so the next boot warm-starts into it;
// idle sessions are evicted past -ttl.
//
// The daemon runs exactly one engine. With -corners it has one named lane per
// scenario (core.Scenario): every session prices its what-ifs in all corners
// with a single cone re-propagation, ECO previews and commits carry
// per-scenario and merged ΔWNS/ΔTNS, and ?scenario=<name|merged> selects a
// corner on the slack endpoints. The nominal figures (top-level wns/tns,
// /slacks, /gradients) are read from the unit-scale scenario, so a -corners
// list without one gets tt prepended: -corners ss,ff analyses tt,ss,ff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"insta/internal/cmdutil"
	"insta/internal/obs"
	"insta/internal/server"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	df := cmdutil.DaemonFlags(flag.CommandLine)
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-served") // nil unless -trace/-manifest: the daemon then keeps a dormant tracer
	if ob.Manifest {
		// Per-commit manifests: every session commit writes one JSON record.
		df.ManifestDir = obs.ManifestDir()
	}

	t0 := time.Now()
	bt, err := df.Boot(tr)
	if err != nil {
		fatalf("%v", err)
	}
	d, err := server.NewDaemon(bt, df, tr)
	if err != nil {
		fatalf("%v", err)
	}
	mgr := d.Manager()
	e := mgr.Engine()
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = bt.Design
		m.Pins, m.Arcs, m.Endpoints, m.Levels = e.NumPins(), e.NumArcs(), len(e.Endpoints()), e.NumLevels()
		m.TopK, m.Workers = df.TopK, df.Sched.Workers
		m.WNSAfter, m.TNSAfter = mgr.BaseWNS(), mgr.BaseTNS()
		bt.FillManifest(m)
	})
	slog.Info("ready", "design", bt.Design, "boot", bt.Mode(), "init", time.Since(t0).Round(time.Millisecond).String(),
		"pins", e.NumPins(), "arcs", e.NumArcs(), "endpoints", len(e.Endpoints()),
		"wns_ps", mgr.BaseWNS(), "tns_ps", mgr.BaseTNS(), "topk", df.TopK, "workers", e.Pool().Workers())
	if bt.Warm {
		slog.Info("warm boot: reference engine disabled (resize ECOs answer 501; POST /admin/snapshot persists the current base)")
	}
	if scns := mgr.Scenarios(); scns != nil {
		slog.Info("multi-corner", "scenarios", len(scns), "mem_mb", float64(e.MemoryBytes())/1e6)
	}

	if err := d.Listen(*addr); err != nil {
		fatalf("listen: %v", err)
	}
	slog.Info("listening", "addr", d.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-d.ServeErr():
		if !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		// Graceful drain: stop accepting, finish in-flight requests, persist
		// the committed base through the snapshot cache (when configured),
		// then release the sessions and the engine.
		slog.Info("draining", "budget", df.Drain.String())
		sctx, cancel := context.WithTimeout(context.Background(), df.Drain)
		defer cancel()
		_ = d.Close(sctx)
		slog.Info("bye")
	}
}
