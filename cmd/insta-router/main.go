// Command insta-router fronts a fleet of insta-served replicas with one
// HTTP endpoint (internal/fleet, DESIGN.md §13): consistent-hash routing of
// stateful ECO sessions to their home replica, health-checked membership,
// per-replica and fleet-wide in-flight admission control, hedged idempotent
// base reads, and rolling snapshot-swap deploys with zero dropped sessions.
// The routed surface is identical to a single daemon's, so clients only see
// a different session-ID shape ("<key>.<localID>").
//
//	insta-router -design block-2 -replicas 4                 # in-process fleet
//	insta-router -design block-2 -replicas 2 -corners ss,tt,ff
//	insta-router -mode attach -attach http://h1:8080,http://h2:8080
//
// The router registers insta-served's own flag set (cmdutil.DaemonFlags:
// -design/-dir/-tech, -topk, -corners, -max-sessions, -ttl, -sweep, -drain,
// -workers, -snapshot-dir, -flight-size/-flight-pin/-slo-objective/
// -slo-budget) and every replica it starts is configured by it, so a fleet
// replica is the daemon a lone insta-served with the same flags would be.
//
// Modes:
//
//   - inproc (default): boots the design once, then stands up -replicas
//     daemons (server.Daemon) over the shared compiled state inside this
//     process — each on its own loopback listener with its own engine,
//     session manager and TTL sweeper. The cheapest way to run a fleet on one
//     machine: one cold build, warm replicas. A rolling swap closes a
//     replica's daemon (which persists its committed base) and starts a new
//     one from the latest snapshot on a fresh port.
//   - attach: joins daemons already running elsewhere — insta-served
//     processes started by hand or by a supervisor; the router adds
//     routing, health, admission and hedging but owns no lifecycle, so
//     POST /admin/swap answers 501.
//
// Endpoints are the daemon's plus POST /admin/swap (rolling snapshot-swap;
// inproc mode). GET /healthz aggregates per-replica state; GET
// /metrics exposes the fleet counters (per-replica requests, hedge
// fires/wins, retries, unready transitions, admission timeouts) and the SLO
// burn-rate gauges. Every routed request carries a W3C traceparent (minted
// here or joined from the caller) that the replicas' serve spans attach to:
// GET /debug/trace/{traceid} exports one request's stitched router+replica
// Chrome trace (full tree in inproc mode), GET /debug/flightrecorder dumps
// the always-on request ring with pinned anomalies, and GET /debug/fleet is
// the operator view — a live scrape of every replica with session/epoch skew
// and burn rates (-flight-size/-flight-pin/-slo-objective/-slo-budget tune
// these, for the router's recorder and every replica's alike;
// -trace/-manifest/-log-level as in the other tools). SIGTERM drains: new
// work is refused with 503 + Retry-After, in-flight requests finish, then the
// in-process daemons shut down, each persisting its committed base when a
// snapshot cache is configured.
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
	"insta/internal/fleet"
	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8090", "router listen address")
	mode := flag.String("mode", "inproc", "fleet backend: inproc or attach")
	replicas := flag.Int("replicas", 4, "replica count (inproc mode)")
	attach := flag.String("attach", "", "comma-separated replica base URLs (attach mode)")

	globalInflight := flag.Int("global-inflight", 0, "fleet-wide in-flight cap on session-scoped requests (0 = unlimited)")
	replicaInflight := flag.Int("replica-inflight", 0, "per-replica in-flight cap on session-scoped requests (0 = unlimited)")
	admissionWait := flag.Duration("admission-wait", 2*time.Second, "max admission queue wait before 503")
	noHedge := flag.Bool("no-hedge", false, "disable hedged base reads")
	healthEvery := flag.Duration("health-interval", 500*time.Millisecond, "replica health probe period")

	df := cmdutil.DaemonFlags(flag.CommandLine) // what every replica serves; -workers is per replica
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-router")
	if tr == nil {
		// Always keep a live router tracer: request spans are cheap, and the
		// stitched /debug/trace/{trace} export needs them to reconstruct a
		// slow request after the fact.
		tr = obs.NewTracer()
	}
	if ob.Manifest {
		df.ManifestDir = obs.ManifestDir()
	}

	so := df.Shell // the replicas' recorder and SLO settings are the router's too
	so.Tracer = tr
	fopt := fleet.Options{
		HealthInterval:     *healthEvery,
		PerReplicaInflight: *replicaInflight,
		GlobalInflight:     *globalInflight,
		AdmissionWait:      *admissionWait,
		DisableHedge:       *noHedge,
		Shell:              shell.New(so),
	}

	var (
		urls       []string
		cleanup    func()
		repTracers []*obs.Tracer
	)
	if *replicas <= 0 && *mode != "attach" {
		fatalf("-replicas must be positive")
	}
	switch *mode {
	case "inproc":
		urls, repTracers, fopt.Swap, cleanup = bootInproc(df, *replicas)
	case "attach":
		for _, u := range strings.Split(*attach, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimSuffix(u, "/"))
			}
		}
		if len(urls) == 0 {
			fatalf("attach mode needs -attach url[,url...]")
		}
		cleanup = func() {}
	default:
		fatalf("unknown -mode %q (want inproc or attach)", *mode)
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
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = df.Design
		if m.Design == "" {
			m.Design = df.Dir
		}
		m.Workers = df.Sched.Workers
		m.TopK = df.TopK
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
		slog.Info("draining", "budget", df.Drain.String())
		pool.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), df.Drain)
		_ = httpSrv.Shutdown(sctx)
		cancel()
		pool.Close()
		cleanup()
		slog.Info("bye")
	}
}

// bootInproc boots the design once and stands up n daemons over it inside this
// process, each with its own engine over the shared compiled state and its own
// span tracer (returned for the router's stitched trace export). The returned
// swap function replaces one drained replica's daemon: the old one closes —
// persisting its committed base when a snapshot cache is configured — and a
// new one starts from whatever the cache now holds, the fleet-wide latest
// commit, on a fresh port the replica is re-pointed at.
func bootInproc(df *cmdutil.Daemon, n int) ([]string, []*obs.Tracer, func(context.Context, *fleet.Replica) error, func()) {
	bt, err := df.Boot(nil)
	if err != nil {
		fatalf("%v", err)
	}
	var mu sync.Mutex // guards daemons: a swap against the shutdown
	daemons := make([]*server.Daemon, n)
	tracers := make([]*obs.Tracer, n)
	stop := func(i int) {
		if daemons[i] != nil {
			ctx, cancel := context.WithTimeout(context.Background(), df.Drain)
			_ = daemons[i].Close(ctx)
			cancel()
			daemons[i] = nil
		}
	}
	// start puts a new daemon in slot i, on the slot's tracer so the router's
	// stitched export stays wired across swaps, and returns its URL.
	start := func(i int) (string, error) {
		d, err := server.NewDaemon(bt, df, tracers[i])
		if err != nil {
			return "", err
		}
		daemons[i] = d
		if err := d.Listen("127.0.0.1:0"); err != nil {
			stop(i)
			return "", err
		}
		return "http://" + d.Addr(), nil
	}
	urls := make([]string, n)
	for i := range daemons {
		tracers[i] = obs.NewTracer()
		if urls[i], err = start(i); err != nil {
			fatalf("replica %d: %v", i, err)
		}
	}
	e := daemons[0].Manager().Engine()
	slog.Info("inproc fleet ready", "design", bt.Design, "boot", bt.Mode(), "replicas", n,
		"pins", e.NumPins(), "workers_per_replica", e.Pool().Workers())

	swap := func(ctx context.Context, r *fleet.Replica) error {
		mu.Lock()
		defer mu.Unlock()
		stop(r.ID)
		if bt.Cache != nil && bt.Key != "" {
			// What the closed daemon just saved, or a later commit of another
			// replica's: from here on the state new replicas start from.
			if snp, err := bt.Cache.Load(bt.Key); err == nil && snp != nil {
				bt.State = snp.State
			}
		}
		url, err := start(r.ID)
		if err != nil {
			return err
		}
		r.SetURL(url)
		return nil
	}
	cleanup := func() {
		mu.Lock()
		defer mu.Unlock()
		for i := range daemons {
			stop(i)
		}
	}
	return urls, tracers, swap, cleanup
}
