// Command insta-router fronts a fleet of insta-served replicas with one
// HTTP endpoint (internal/fleet, DESIGN.md §13): consistent-hash routing of
// stateful ECO sessions to their home replica, health-checked membership,
// per-replica and fleet-wide in-flight admission control, hedged idempotent
// base reads, and rolling snapshot-swap deploys with zero dropped sessions.
// The routed surface is identical to a single daemon's, so clients only see
// a different session-ID shape ("<key>.<localID>").
//
//	insta-router -design block-2 -replicas 4                 # in-process fleet
//	insta-router -mode spawn -design block-2 -replicas 4 \
//	    -served-bin ./insta-served -snapshot-dir ~/.cache/insta
//	insta-router -mode attach -attach http://h1:8080,http://h2:8080
//
// Modes:
//
//   - inproc (default): boots the design once, then stands up -replicas
//     engines from the shared compiled state inside this process — each on
//     its own loopback listener with its own session manager. The cheapest
//     way to run a fleet on one machine: one cold build, warm replicas.
//   - spawn: execs -replicas insta-served children on consecutive ports.
//     With -snapshot-dir the first child cold-builds and writes the
//     snapshot; the rest (and every rolling-swap respawn) boot warm from it.
//   - attach: joins daemons already running elsewhere; the router adds
//     routing, health, admission and hedging but owns no lifecycle, so
//     POST /admin/swap answers 501.
//
// Endpoints are the daemon's plus POST /admin/swap (rolling snapshot-swap;
// inproc and spawn modes). GET /healthz aggregates per-replica state; GET
// /metrics exposes the fleet counters (per-replica requests, hedge
// fires/wins, retries, unready transitions, admission timeouts) and the SLO
// burn-rate gauges. Every routed request carries a W3C traceparent (minted
// here or joined from the caller) that the replicas' serve spans attach to:
// GET /debug/trace/{traceid} exports one request's stitched router+replica
// Chrome trace (full tree in inproc mode), GET /debug/flightrecorder dumps
// the always-on request ring with pinned anomalies, and GET /debug/fleet is
// the operator view — a live scrape of every replica with session/epoch skew
// and burn rates (-flight-size/-flight-pin/-slo-objective/-slo-budget tune
// these; -trace/-manifest/-log-level as in the other tools). SIGTERM
// drains: new work is refused with 503 + Retry-After, in-flight requests
// finish, then children (spawn) or managers (inproc) shut down — each
// persisting its committed base when a snapshot cache is configured.
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
	"strings"
	"sync"
	"syscall"
	"time"

	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/fleet"
	"insta/internal/obs"
	"insta/internal/server"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8090", "router listen address")
	mode := flag.String("mode", "inproc", "fleet backend: inproc, spawn or attach")
	replicas := flag.Int("replicas", 4, "replica count (inproc/spawn modes)")
	attach := flag.String("attach", "", "comma-separated replica base URLs (attach mode)")
	servedBin := flag.String("served-bin", "insta-served", "insta-served binary (spawn mode)")
	basePort := flag.Int("base-port", 18080, "first replica port, consecutive from here (spawn mode)")

	design := flag.String("design", "", "serve a built-in preset (block-*/IWLS/superblue name)")
	dir := flag.String("dir", "", "serve a design directory (design.lib/.v/.sdc/.spef)")
	tech := flag.String("tech", "", "fallback library when design.lib is absent: n3 or asap7")
	topK := flag.Int("topk", 32, "INSTA Top-K")
	maxSessions := flag.Int("max-sessions", 64, "per-replica admission cap on live sessions")
	ttl := flag.Duration("ttl", 5*time.Minute, "per-replica idle session lifetime")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")

	globalInflight := flag.Int("global-inflight", 0, "fleet-wide in-flight cap on session-scoped requests (0 = unlimited)")
	replicaInflight := flag.Int("replica-inflight", 0, "per-replica in-flight cap on session-scoped requests (0 = unlimited)")
	admissionWait := flag.Duration("admission-wait", 2*time.Second, "max admission queue wait before 503")
	noHedge := flag.Bool("no-hedge", false, "disable hedged base reads")
	healthEvery := flag.Duration("health-interval", 500*time.Millisecond, "replica health probe period")
	flightSize := flag.Int("flight-size", 4096, "request flight-recorder ring entries (negative disables)")
	flightPin := flag.Duration("flight-pin", 250*time.Millisecond, "latency at which a routed request pins as an anomaly")
	sloObjective := flag.Duration("slo-objective", 100*time.Millisecond, "routed-request latency SLO objective")
	sloBudget := flag.Float64("slo-budget", 0.01, "SLO error budget fraction")

	sf := cmdutil.SchedFlags() // -workers is per replica in inproc mode
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-router")
	if tr == nil {
		// Always keep a live router tracer: request spans are cheap, and the
		// stitched /debug/trace/{trace} export needs them to reconstruct a
		// slow request after the fact.
		tr = obs.NewTracer()
	}

	fopt := fleet.Options{
		HealthInterval:     *healthEvery,
		PerReplicaInflight: *replicaInflight,
		GlobalInflight:     *globalInflight,
		AdmissionWait:      *admissionWait,
		DisableHedge:       *noHedge,
		Tracer:             tr,
		FlightRecorderSize: *flightSize,
		PinThreshold:       *flightPin,
		SLOObjective:       *sloObjective,
		SLOErrorBudget:     *sloBudget,
	}

	var (
		urls       []string
		cleanup    func(grace time.Duration)
		repTracers []*obs.Tracer
	)
	switch *mode {
	case "inproc":
		urls, repTracers, fopt.Swap, cleanup = bootInproc(sf, sn, *design, *dir, *tech, *topK, *maxSessions, *ttl, *replicas)
	case "spawn":
		urls, fopt.Swap, cleanup = bootSpawn(sf, sn, *servedBin, *design, *dir, *tech, *topK, *maxSessions, *basePort, *replicas)
	case "attach":
		for _, u := range strings.Split(*attach, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimSuffix(u, "/"))
			}
		}
		if len(urls) == 0 {
			fatalf("attach mode needs -attach url[,url...]")
		}
		cleanup = func(time.Duration) {}
	default:
		fatalf("unknown -mode %q (want inproc, spawn or attach)", *mode)
	}

	pool, err := fleet.New(urls, fopt)
	if err != nil {
		fatalf("fleet: %v", err)
	}
	// In inproc mode every replica's span stream lives in this process, so
	// GET /debug/trace/{trace} exports the full router+replica tree for one
	// request as a single stitched Chrome trace file.
	for i, rtr := range repTracers {
		pool.AddTraceStream(fmt.Sprintf("replica-%d", i), rtr)
	}
	pool.EnableDebug() // /debug/pprof/*
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = *design
		if m.Design == "" {
			m.Design = *dir
		}
		m.Workers = sf.Workers
		m.TopK = *topK
		m.Extra = map[string]any{"mode": *mode, "replicas": len(urls)}
	})
	ready := 0
	for _, r := range pool.Replicas() {
		if r.Ready() {
			ready++
		}
	}
	slog.Info("fleet up", "mode", *mode, "replicas", len(urls), "ready", ready, "addr", *addr)

	httpSrv := server.NewHTTPServer(*addr, pool.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

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
		slog.Info("draining", "budget", drain.String())
		pool.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		_ = httpSrv.Shutdown(sctx)
		cancel()
		pool.Close()
		cleanup(*drain)
		slog.Info("bye")
	}
}

// bootInproc builds the design once and stands up n replicas inside this
// process, each with its own engine over the shared compiled state and its
// own span tracer (returned for the router's stitched trace export). The
// returned swap function rebuilds one replica's engine from the latest
// committed snapshot (when a cache is configured) behind the same URL.
func bootInproc(sf *cmdutil.Sched, sn *cmdutil.Snap, design, dir, tech string, topK, maxSessions int, ttl time.Duration, n int) ([]string, []*obs.Tracer, func(context.Context, *fleet.Replica) error, func(time.Duration)) {
	if n <= 0 {
		fatalf("-replicas must be positive")
	}
	bt := boot(sn, design, dir, tech)
	name := bt.Design
	opt := sf.Options()
	opt.TopK = topK

	tracers := make([]*obs.Tracer, n)
	mkManager := func(st *core.State, tr *obs.Tracer) (*server.Manager, *core.Engine) {
		o := opt
		o.Tracer = tr
		e, err := core.NewEngineFromState(st, o)
		if err != nil {
			fatalf("insta: %v", err)
		}
		srvOpt := server.Options{MaxSessions: maxSessions, TTL: ttl, Design: name, Snapshots: bt.Cache}
		srvOpt.Boot = &server.BootInfo{Mode: bt.Mode(), SnapshotKey: bt.Key}
		return server.NewManager(e, bt.Ref, srvOpt), e
	}
	// Each replica serves with the daemon's full observability stack so a
	// routed request's serve spans join the router's trace (DESIGN.md §15).
	mkHandler := func(mgr *server.Manager, tr *obs.Tracer) http.Handler {
		srv := server.New(mgr, name)
		srv.EnableTracing(tr)
		srv.EnableFlightRecorder(obs.NewFlightRecorder(obs.FlightRecorderOptions{Tracer: tr}))
		srv.EnableSLO(obs.NewSLOTracker(obs.SLOOptions{}))
		return srv.Handler()
	}

	var mu sync.Mutex // guards managers/engines against swap vs sweeper races
	managers := make([]*server.Manager, n)
	engines := make([]*core.Engine, n)
	locals := make([]*fleet.LocalReplica, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		tracers[i] = obs.NewTracer()
		managers[i], engines[i] = mkManager(bt.State, tracers[i])
		lr, err := fleet.NewLocalReplica(mkHandler(managers[i], tracers[i]))
		if err != nil {
			fatalf("fleet: %v", err)
		}
		locals[i] = lr
		urls[i] = lr.URL()
	}

	// Eviction sweep across all replicas: abandoned sessions must age out or
	// they would wedge a rolling swap's drain forever (insta-served runs the
	// same sweep per daemon).
	sweepStop := make(chan struct{})
	go func() {
		tick := time.NewTicker(30 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-sweepStop:
				return
			case now := <-tick.C:
				mu.Lock()
				for i, mgr := range managers {
					if cnt := mgr.Sweep(now); cnt > 0 {
						slog.Info("evicted idle sessions", "replica", i, "count", cnt)
					}
				}
				mu.Unlock()
			}
		}
	}()
	slog.Info("inproc fleet ready", "design", name, "boot", bt.Mode(), "replicas", n,
		"pins", engines[0].NumPins(), "workers_per_replica", engines[0].Pool().Workers())

	swap := func(ctx context.Context, r *fleet.Replica) error {
		i := r.ID
		mu.Lock()
		defer mu.Unlock()
		old, oldEngine := managers[i], engines[i]
		st := bt.State
		if bt.Cache != nil && bt.Key != "" {
			// Persist the drained replica's committed base, then rebuild from
			// whatever the cache now holds — the fleet-wide latest commit.
			if _, _, _, err := old.SaveSnapshot(); err != nil {
				slog.Warn("swap: snapshot save failed", "replica", i, "err", err)
			}
			if snp, err := bt.Cache.Load(bt.Key); err == nil && snp != nil {
				st = snp.State
			}
		}
		// The replacement keeps the replica's tracer, so the router's stitched
		// export stays wired across swaps.
		mgr, e := mkManager(st, tracers[i])
		locals[i].SetHandler(mkHandler(mgr, tracers[i]))
		managers[i], engines[i] = mgr, e
		old.CloseAll()
		oldEngine.Close()
		return nil
	}

	cleanup := func(time.Duration) {
		close(sweepStop)
		mu.Lock()
		defer mu.Unlock()
		for i := range locals {
			_ = locals[i].Close()
			managers[i].CloseAll()
			engines[i].Close()
		}
	}
	return urls, tracers, swap, cleanup
}

// bootSpawn execs n insta-served children on consecutive loopback ports,
// passing the design and snapshot flags through. The swap function restarts
// one child in place (SIGTERM → its drain persists the committed base →
// respawn warm-boots from the shared snapshot cache).
func bootSpawn(sf *cmdutil.Sched, sn *cmdutil.Snap, bin, design, dir, tech string, topK, maxSessions, basePort, n int) ([]string, func(context.Context, *fleet.Replica) error, func(time.Duration)) {
	if n <= 0 {
		fatalf("-replicas must be positive")
	}
	if design == "" && dir == "" {
		fatalf("pass -design <preset> or -dir <design directory>")
	}
	args := []string{"-topk", fmt.Sprint(topK), "-max-sessions", fmt.Sprint(maxSessions), "-workers", fmt.Sprint(sf.Workers)}
	if design != "" {
		args = append(args, "-design", design)
	}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	if tech != "" {
		args = append(args, "-tech", tech)
	}
	if sn.Dir != "" {
		args = append(args, "-snapshot-dir", sn.Dir)
	}

	procs := make([]*fleet.Proc, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		pAddr := fmt.Sprintf("127.0.0.1:%d", basePort+i)
		full := append(append([]string{}, args...), "-addr", pAddr)
		// 10 min ready budget: the first child may cold-build; later ones
		// warm-boot in milliseconds from the shared cache.
		pr, err := fleet.SpawnProc(context.Background(), bin, full, pAddr, 10*time.Minute)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = procs[j].Stop(0)
			}
			fatalf("spawn replica %d: %v", i, err)
		}
		procs[i] = pr
		urls[i] = pr.URL()
		slog.Info("spawned replica", "replica", i, "addr", pAddr)
	}

	swap := func(ctx context.Context, r *fleet.Replica) error {
		return procs[r.ID].Restart(ctx, 30*time.Second, 10*time.Minute)
	}
	cleanup := func(grace time.Duration) {
		for _, pr := range procs {
			_ = pr.Stop(grace)
		}
	}
	return urls, swap, cleanup
}

func boot(sn *cmdutil.Snap, design, dir, tech string) *cmdutil.Boot {
	var (
		bt  *cmdutil.Boot
		err error
	)
	switch {
	case design != "" && dir != "":
		fatalf("pass -design or -dir, not both")
	case design != "":
		spec, sErr := cmdutil.SpecByName(design)
		if sErr != nil {
			fatalf("%v", sErr)
		}
		if bt, err = sn.BootPreset(spec, nil); err != nil {
			fatalf("generate: %v", err)
		}
		bt.Design = spec.Name
	case dir != "":
		if bt, err = sn.BootDir(dir, tech, nil); err != nil {
			fatalf("load %s: %v", dir, err)
		}
	default:
		fatalf("pass -design <preset> or -dir <design directory>")
	}
	return bt
}
