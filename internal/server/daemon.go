package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"insta/internal/batch"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/obs/shell"
)

// Daemon is one assembled insta-served: the one engine over a booted design
// (a lane per -corners scenario), its session manager, the HTTP server inside
// its request shell, the TTL sweeper and, once Listen was called, the
// listener. cmd/insta-served runs one; cmd/insta-router's inproc mode runs one
// per replica and builds a fresh one on every rolling swap — there is no other
// way the mains construct a served engine, so every replica of a fleet is the
// daemon a lone insta-served would be.
//
// It exists for the two orders it owns. Construction: engine, manager (which
// runs the one full propagation), server, shell, sweeper. Teardown: Close.
type Daemon struct {
	mgr   *Manager
	eng   *core.Engine  // the boot engine; a structurally committed one is the manager's
	http  *http.Server  // Addr is what Listen bound
	errc  chan error    // Serve's result, for ServeErr
	stop  chan struct{} // closed by Close: ends the sweeper
	swept chan struct{} // closed when the sweeper has returned
}

// NewDaemon assembles a daemon over bt as df configures it. tr is the tracer
// its engine and request shell record into; nil selects a dormant one, so
// GET /debug/trace?dur= can still open capture windows on demand at zero
// steady-state cost.
func NewDaemon(bt *cmdutil.Boot, df *cmdutil.Daemon, tr *obs.Tracer) (*Daemon, error) {
	if df.Sweep <= 0 {
		return nil, fmt.Errorf("sweep interval %v is not positive", df.Sweep)
	}
	if tr == nil {
		tr = obs.NewTracer()
		tr.Disable()
	}
	opt := df.Sched.Options()
	opt.TopK = df.TopK
	opt.Tracer = tr
	mopt := Options{
		MaxSessions: df.MaxSessions,
		TTL:         df.TTL,
		ManifestDir: df.ManifestDir,
		Design:      bt.Design,
		Snapshots:   bt.Cache,
		Boot: &BootInfo{
			Mode:        bt.Mode(),
			SnapshotKey: bt.Key,
			SnapLoadMS:  float64(bt.Load.Nanoseconds()) / 1e6,
			ColdBuildMS: float64(bt.Build.Nanoseconds()) / 1e6,
		},
	}
	// One engine: a lane per scenario with -corners, the single nominal lane
	// without. The nominal figures are read from the unit-scale scenario, so
	// a list without one gets tt prepended.
	d := &Daemon{stop: make(chan struct{}), swept: make(chan struct{})}
	var e *core.Engine // what NewManager wraps; nil when it serves mopt.Batch
	if df.Corners.Enabled() {
		scns, err := df.Corners.Scenarios()
		if err == nil {
			scns, err = batch.WithUnit(scns)
		}
		if err == nil {
			mopt.Batch, err = batch.NewFromState(bt.State, scns, opt)
		}
		if err != nil {
			return nil, fmt.Errorf("corners: %w", err)
		}
		d.eng = mopt.Batch.Engine
	} else {
		var err error
		if e, err = core.NewEngineFromState(bt.State, opt); err != nil {
			return nil, fmt.Errorf("insta: %w", err)
		}
		d.eng = e
	}
	d.eng.EnableKernelStats()
	// Warm boots run without the reference engine (bt.Ref is nil): resize-form
	// ECOs answer 501 and pin names stay blank until a cold start rebuilds it.
	d.mgr = NewManager(e, bt.Ref, mopt)
	srv := New(d.mgr, bt.Design)
	so := df.Shell
	so.Tracer = tr
	srv.Observe(shell.New(so))
	d.http = NewHTTPServer("", srv.Handler())
	go d.sweep(df.Sweep)
	return d, nil
}

// sweep evicts sessions idle past the TTL, so abandoned overlays free up and
// cannot hold a rolling swap's drain open for ever.
func (d *Daemon) sweep(every time.Duration) {
	defer close(d.swept)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case now := <-tick.C:
			if n := d.mgr.Sweep(now); n > 0 {
				slog.Info("evicted idle sessions", "count", n)
			}
		}
	}
}

// Manager returns the daemon's session manager.
func (d *Daemon) Manager() *Manager { return d.mgr }

// Listen binds addr and serves on it in the background. A bind failure is
// returned; a later serve failure arrives on ServeErr.
func (d *Daemon) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.http.Addr = lis.Addr().String()
	d.errc = make(chan error, 1)
	go func() { d.errc <- d.http.Serve(lis) }()
	return nil
}

// Addr returns the address Listen bound (host:port, the port resolved).
func (d *Daemon) Addr() string { return d.http.Addr }

// ServeErr delivers the error the listener stopped with: http.ErrServerClosed
// after Close, anything else a failure. Nil before Listen.
func (d *Daemon) ServeErr() <-chan error { return d.errc }

// Close tears the daemon down in its one order: the listener stops accepting
// and in-flight requests finish within ctx's budget; the committed base is
// saved to the snapshot cache, when there is one, so ECOs committed this run
// survive into the next boot; the sessions are released; then the engine a
// structural commit installed and the boot engine. It returns
// http.Server.Shutdown's error — nil when every in-flight request completed
// inside the budget, ctx's when the budget ran out first. The rest runs either
// way: a teardown that times out must still not leak state.
func (d *Daemon) Close(ctx context.Context) error {
	close(d.stop)
	<-d.swept
	err := d.http.Shutdown(ctx)
	if err != nil {
		slog.Warn("drain incomplete", "err", err)
	}
	if path, size, key, serr := d.mgr.SaveSnapshot(); serr == nil {
		slog.Info("drain snapshot saved", "path", path, "bytes", size, "key", key[:min(12, len(key))])
	} else if !errors.Is(serr, ErrNoSnapshots) {
		slog.Warn("drain snapshot save failed", "err", serr)
	}
	d.mgr.CloseAll()
	d.mgr.Close()
	d.eng.Close()
	return err
}
