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
// The daemon runs exactly one engine. With -corners it has one lane per
// scenario (internal/batch): every session prices its what-ifs in all corners
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

	"insta/internal/batch"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/server"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	design := flag.String("design", "", "serve a built-in preset (block-*/IWLS/superblue name)")
	dir := flag.String("dir", "", "serve a design directory (design.lib/.v/.sdc/.spef)")
	tech := flag.String("tech", "", "fallback library when design.lib is absent: n3 or asap7")
	topK := flag.Int("topk", 32, "INSTA Top-K")
	addr := flag.String("addr", ":8080", "listen address")
	maxSessions := flag.Int("max-sessions", 64, "admission cap on live sessions")
	ttl := flag.Duration("ttl", 5*time.Minute, "idle session lifetime")
	sweepEvery := flag.Duration("sweep", 30*time.Second, "eviction sweep interval")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	flightSize := flag.Int("flight-size", 4096, "request flight-recorder ring entries (negative disables)")
	flightPin := flag.Duration("flight-pin", 250*time.Millisecond, "latency at which a request pins as an anomaly")
	sloObjective := flag.Duration("slo-objective", 100*time.Millisecond, "request latency SLO objective")
	sloBudget := flag.Float64("slo-budget", 0.01, "SLO error budget fraction")
	sf := cmdutil.SchedFlags()
	cf := cmdutil.CornersFlag()
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-served")
	if tr == nil {
		// No always-on capture requested: keep a disabled tracer around anyway
		// so /debug/trace?dur= can open capture windows on demand at zero
		// steady-state cost.
		tr = obs.NewTracer()
		tr.Disable()
	}

	t0 := time.Now()
	var (
		bt  *cmdutil.Boot
		err error
	)
	switch {
	case *design != "" && *dir != "":
		fatalf("pass -design or -dir, not both")
	case *design != "":
		spec, sErr := cmdutil.SpecByName(*design)
		if sErr != nil {
			fatalf("%v", sErr)
		}
		if bt, err = sn.BootPreset(spec, tr); err != nil {
			fatalf("generate: %v", err)
		}
		bt.Design = spec.Name
	case *dir != "":
		if bt, err = sn.BootDir(*dir, *tech, tr); err != nil {
			fatalf("load %s: %v", *dir, err)
		}
	default:
		fatalf("pass -design <preset> or -dir <design directory>")
	}
	name := bt.Design

	opt := sf.Options()
	opt.TopK = *topK
	opt.Tracer = tr
	srvOpt := server.Options{MaxSessions: *maxSessions, TTL: *ttl, Design: name}
	srvOpt.Boot = &server.BootInfo{
		Mode:        bt.Mode(),
		SnapshotKey: bt.Key,
		SnapLoadMS:  float64(bt.Load.Nanoseconds()) / 1e6,
		ColdBuildMS: float64(bt.Build.Nanoseconds()) / 1e6,
	}
	srvOpt.Snapshots = bt.Cache
	if ob.Manifest {
		// Per-commit manifests: every session commit writes one JSON record.
		srvOpt.ManifestDir = obs.ManifestDir()
	}
	// One engine: a lane per scenario with -corners (e stays nil), the single
	// nominal lane without.
	var e *core.Engine
	if cf.Enabled() {
		scns, sErr := cf.Scenarios()
		if sErr == nil {
			scns, sErr = batch.WithUnit(scns)
		}
		if sErr != nil {
			fatalf("corners: %v", sErr)
		}
		be, bErr := batch.NewFromState(bt.State, scns, opt)
		if bErr != nil {
			fatalf("corners: %v", bErr)
		}
		defer be.Close()
		be.EnableKernelStats()
		srvOpt.Batch = be
	} else {
		if e, err = core.NewEngineFromState(bt.State, opt); err != nil {
			fatalf("insta: %v", err)
		}
		defer e.Close()
		e.EnableKernelStats()
	}
	// Warm boots run without the reference engine: resize-form ECOs and pin
	// names answer 501/blank until a cold start rebuilds it.
	mgr := server.NewManager(e, bt.Ref, srvOpt)
	e = mgr.Engine()
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = name
		m.Pins, m.Arcs, m.Endpoints, m.Levels = e.NumPins(), e.NumArcs(), len(e.Endpoints()), e.NumLevels()
		m.TopK, m.Workers, m.Grain = *topK, sf.Workers, sf.Grain
		m.WNSAfter, m.TNSAfter = mgr.BaseWNS(), mgr.BaseTNS()
		bt.FillManifest(m)
	})
	slog.Info("ready", "design", name, "boot", bt.Mode(), "init", time.Since(t0).Round(time.Millisecond).String(),
		"pins", e.NumPins(), "arcs", e.NumArcs(), "endpoints", len(e.Endpoints()),
		"wns_ps", mgr.BaseWNS(), "tns_ps", mgr.BaseTNS(), "topk", *topK, "workers", e.Pool().Workers())
	if bt.Warm {
		slog.Info("warm boot: reference engine disabled (resize ECOs answer 501; POST /admin/snapshot persists the current base)")
	}
	if be := mgr.Batch(); be != nil {
		slog.Info("multi-corner", "scenarios", be.NumScenarios(),
			"mem_mb", float64(be.MemoryBytes())/1e6)
	}

	srv := server.New(mgr, name)
	// Request observability (DESIGN.md §15): trace identity on every request
	// (joined from the router's Traceparent or minted locally), the always-on
	// flight recorder with anomaly pinning, and SLO burn-rate gauges.
	srv.EnableTracing(tr)
	if *flightSize >= 0 {
		srv.EnableFlightRecorder(obs.NewFlightRecorder(obs.FlightRecorderOptions{
			Size: *flightSize, PinThreshold: *flightPin, Tracer: tr,
		}))
	}
	srv.EnableSLO(obs.NewSLOTracker(obs.SLOOptions{Objective: *sloObjective, ErrorBudget: *sloBudget}))
	srv.EnableDebug(tr) // /debug/pprof/*, windowed /debug/trace?dur=, /debug/flightrecorder
	httpSrv := server.NewHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Eviction sweep: abandoned sessions age out so their overlays free up.
	go func() {
		tick := time.NewTicker(*sweepEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if n := mgr.Sweep(now); n > 0 {
					slog.Info("evicted idle sessions", "count", n)
				}
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		// Graceful drain: stop accepting, finish in-flight requests, persist
		// the committed base through the snapshot cache (when configured),
		// then release the sessions.
		slog.Info("draining", "budget", drain.String())
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		_ = server.Drain(sctx, httpSrv, mgr, slog.Default())
		slog.Info("bye")
	}
}
