// Package fleet turns N insta-served replicas into one timing service behind
// a single HTTP front door (see DESIGN.md §13).
//
// The problem it solves is stateful routing under load: ECO sessions are
// copy-on-write overlays resident in exactly one replica's memory, so every
// request for a session must reach the replica that created it, while the
// stateless read surface (/slacks, /gradients — the committed base is
// byte-identical on every replica booted from the same snapshot) can go
// anywhere. The pool answers with:
//
//   - consistent hashing of router-minted session keys, embedded in the
//     fleet-visible session ID ("<key>.<localID>") so the home replica is
//     re-derivable from the ID alone (ring.go);
//   - per-replica and global in-flight admission caps on session-scoped
//     work, queued up to Options.AdmissionWait and then refused with
//     503 + Retry-After — on a loaded box this converts the kernel's
//     processor-sharing queueing (every request slow) into FIFO-like
//     queueing (most requests fast, tail bounded), which is where the
//     fleet's p99 win comes from on few-core hosts (fleet.queue_wait_* and
//     fleet.admission_timeouts in the benchmark's traced pass);
//   - hedged idempotent reads: a second attempt to a different replica
//     after a p95-derived delay, first response wins (hedge.go);
//   - bounded retry with backoff on connection errors (proxy.go);
//   - health-checked membership — a replica is unready after
//     Options.UnreadyAfter consecutive /healthz failures and re-admitted on
//     the first success (health.go);
//   - rolling snapshot-swap deploys that drain one replica at a time with
//     zero dropped sessions (swap.go).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/obs"
	"insta/internal/obs/shell"
)

// Options tunes the pool. The zero value is serviceable: health checks every
// 500ms, two strikes to unready, no admission caps, hedging on.
type Options struct {
	// Health checking.
	HealthInterval time.Duration // probe period (default 500ms)
	HealthTimeout  time.Duration // per-probe budget (default 2s)
	UnreadyAfter   int           // consecutive failures before unready (default 2)

	// Admission control over session-scoped requests. Zero = unlimited.
	PerReplicaInflight int           // cap per replica
	GlobalInflight     int           // cap across the fleet
	AdmissionWait      time.Duration // max queue wait before 503 (default 2s)

	// Hedging of idempotent base reads.
	DisableHedge bool
	HedgeMin     time.Duration // floor on the hedge delay (default 1ms)
	HedgeMax     time.Duration // ceiling on the hedge delay (default 100ms)

	// Retry of proxied requests on connection errors: maxRetries extra
	// attempts, the backoff doubling from here.
	RetryBackoff time.Duration // default 2ms

	// Swap restarts one replica's backend on a fresh snapshot; the replica is
	// fully drained when called and may come back on a new URL (r.SetURL).
	// Nil disables POST /admin/swap and RollingSwap.
	Swap func(ctx context.Context, r *Replica) error

	DrainPoll time.Duration // swap drain/ready poll period (default 20ms)

	// Shell is the request shell the work routes run in (DESIGN.md §15): a
	// W3C traceparent minted or joined for every routed request, each one
	// recorded in the always-on flight recorder and sampled into the SLO burn
	// rates. Nil selects shell.New(shell.Options{}): recorder and SLO tracking
	// on, trace ids minted and propagated, spans off.
	Shell *shell.Shell

	Logger *slog.Logger
}

// Fixed parts of the routing policy; no caller ever asked for other values.
const (
	maxRetries       = 2  // extra attempts after the first on a connection error
	virtualNodes     = 64 // ring vnodes per replica
	createProbesEach = 4  // key redraws per replica before a create gives up
)

func (o *Options) withDefaults() Options {
	v := *o
	if v.HealthInterval <= 0 {
		v.HealthInterval = 500 * time.Millisecond
	}
	if v.HealthTimeout <= 0 {
		v.HealthTimeout = 2 * time.Second
	}
	if v.UnreadyAfter <= 0 {
		v.UnreadyAfter = 2
	}
	if v.AdmissionWait <= 0 {
		v.AdmissionWait = 2 * time.Second
	}
	if v.HedgeMin <= 0 {
		v.HedgeMin = time.Millisecond
	}
	if v.HedgeMax <= 0 {
		v.HedgeMax = 100 * time.Millisecond
	}
	if v.RetryBackoff <= 0 {
		v.RetryBackoff = 2 * time.Millisecond
	}
	if v.DrainPoll <= 0 {
		v.DrainPoll = 20 * time.Millisecond
	}
	if v.Shell == nil {
		v.Shell = shell.New(shell.Options{})
	}
	if v.Logger == nil {
		v.Logger = slog.Default()
	}
	return v
}

var (
	// ErrNoReplicas rejects an empty pool.
	ErrNoReplicas = errors.New("fleet: no replicas")
	// ErrNoSwap reports a swap request on a pool built without Options.Swap.
	ErrNoSwap = errors.New("fleet: no swap function configured")
	// errAdmission reports an admission queue timeout.
	errAdmission = errors.New("fleet: admission queue full")
)

// Pool is the replica fleet plus its routing, health and admission state.
type Pool struct {
	opt      Options
	replicas []*Replica
	ring     *ring
	met      *fleetMetrics
	mux      *http.ServeMux
	client   *http.Client
	log      *slog.Logger
	start    time.Time

	sh      *shell.Shell       // the request shell of the work routes
	streams []obs.StitchStream // extra span streams for stitched export (inproc replicas)

	global  chan struct{} // fleet-wide admission gate (nil = unlimited)
	readLat *latTracker   // read-path latency ring feeding the hedge delay
	rr      atomic.Uint64 // round-robin cursor for read placement
	keyCtr  atomic.Uint64 // session key mint counter
	keySalt uint64

	swapMu sync.Mutex // serializes rolling swaps

	stop     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool // router-level drain: new work refused
}

// New builds a pool over the given replica base URLs ("http://host:port").
// Each replica is health-checked once synchronously so the pool starts with a
// real readiness view, then watched on Options.HealthInterval.
func New(urls []string, opt Options) (*Pool, error) {
	if len(urls) == 0 {
		return nil, ErrNoReplicas
	}
	o := (&opt).withDefaults()
	p := &Pool{
		opt:   o,
		ring:  newRing(len(urls), virtualNodes),
		met:   newFleetMetrics(),
		sh:    o.Shell,
		log:   o.Logger,
		start: time.Now(),
		stop:  make(chan struct{}),
		// Pool-private transport: generous idle connections per replica so
		// steady-state proxying reuses sockets instead of dialing.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		readLat: newLatTracker(),
		keySalt: hash64(urls[0] + "|fleet-salt"),
	}
	if o.GlobalInflight > 0 {
		p.global = make(chan struct{}, o.GlobalInflight)
	}
	p.sh.SLO.RegisterMetrics(p.met.reg, "fleet")
	for i, u := range urls {
		r := newReplica(i, u, o.PerReplicaInflight)
		p.replicas = append(p.replicas, r)
		p.checkOnce(r)
	}
	p.met.registerCollectors(p)
	p.buildMux()
	for _, r := range p.replicas {
		p.wg.Add(1)
		go p.healthLoop(r)
	}
	return p, nil
}

// Replicas returns the pool's replicas in ring-index order.
func (p *Pool) Replicas() []*Replica { return p.replicas }

// Metrics returns the pool's obs registry (mounted at /metrics by Handler).
func (p *Pool) Metrics() *obs.Registry { return p.met.reg }

// FlightRecorder returns the router's request recorder (nil when its shell
// was built without one).
func (p *Pool) FlightRecorder() *obs.FlightRecorder { return p.sh.Flight }

// AddTraceStream registers an extra span stream for the stitched trace export
// (GET /debug/trace/{trace}) — in inproc mode the router wires each replica's
// tracer here so one request's full router+replica tree exports as one file.
func (p *Pool) AddTraceStream(name string, tr *obs.Tracer) {
	if tr != nil {
		p.streams = append(p.streams, obs.StitchStream{Name: name, Tracer: tr})
	}
}

// SetDraining flips the router-level drain bit: once set, new requests are
// refused with 503 while in-flight ones complete. cmd/insta-router sets it on
// SIGTERM before shutting the listener down.
func (p *Pool) SetDraining(v bool) { p.draining.Store(v) }

// Close stops the health loops and releases the pool's connections. It does
// not touch the replicas themselves — their lifecycle (process, listener)
// belongs to the caller.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// nextKey mints a fresh session routing key: a counter mixed through a
// 64-bit finalizer, formatted as 16 hex digits. Deterministic per pool run
// (so tests can reason about it) yet well spread on the ring.
func (p *Pool) nextKey() string {
	x := p.keyCtr.Add(1) ^ p.keySalt
	// splitmix64 finalizer: full-avalanche mixing of the counter.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hexd = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexd[x&0xF]
		x >>= 4
	}
	return string(b[:])
}

// admit acquires the global then the per-replica in-flight slot for one
// session-scoped request, queueing up to AdmissionWait for each. The returned
// release must be called exactly once. Global-before-replica cannot deadlock
// (slot holders are always executing and release in finite time); it can
// head-of-line block a global slot behind one busy replica, which is accepted
// — the configurations this pool ships with keep per-replica ≥ global/N.
func (p *Pool) admit(ctx context.Context, rq *shell.Req, rep *Replica) (func(), error) {
	t0 := time.Now()
	sp := rq.Span().Child("admit")
	var timer *time.Timer
	deadline := func() <-chan time.Time {
		if timer == nil {
			timer = time.NewTimer(p.opt.AdmissionWait)
		}
		return timer.C
	}
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		sp.End()
		rq.QueueNs += int64(time.Since(t0))
	}()
	if p.global != nil {
		select {
		case p.global <- struct{}{}:
		default:
			p.met.admissionWaiting.Inc()
			select {
			case p.global <- struct{}{}:
				p.met.admissionWaiting.Dec()
			case <-deadline():
				p.met.admissionWaiting.Dec()
				p.met.admissionTimeouts.Inc()
				return nil, errAdmission
			case <-ctx.Done():
				p.met.admissionWaiting.Dec()
				return nil, ctx.Err()
			}
		}
	}
	if rep.slots != nil {
		select {
		case rep.slots <- struct{}{}:
		default:
			p.met.admissionWaiting.Inc()
			select {
			case rep.slots <- struct{}{}:
				p.met.admissionWaiting.Dec()
			case <-deadline():
				p.met.admissionWaiting.Dec()
				if p.global != nil {
					<-p.global
				}
				p.met.admissionTimeouts.Inc()
				return nil, errAdmission
			case <-ctx.Done():
				p.met.admissionWaiting.Dec()
				if p.global != nil {
					<-p.global
				}
				return nil, ctx.Err()
			}
		}
	}
	rep.inflight.Add(1)
	p.met.inflight.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			rep.inflight.Add(-1)
			p.met.inflight.Dec()
			if rep.slots != nil {
				<-rep.slots
			}
			if p.global != nil {
				<-p.global
			}
		})
	}, nil
}

// fleetMetrics is the router's Prometheus surface, one obs.Registry.
type fleetMetrics struct {
	reg               *obs.Registry
	requests          *obs.CounterVec // fleet_replica_requests_total{replica}
	errors            *obs.CounterVec // fleet_replica_errors_total{replica}
	hedgeFires        *obs.Counter
	hedgeWins         *obs.Counter
	retries           *obs.Counter
	unready           *obs.CounterVec // fleet_unready_transitions_total{replica}
	admissionTimeouts *obs.Counter
	sessionsCreated   *obs.Counter
	createRedraws     *obs.Counter
	swaps             *obs.Counter
	latency           *obs.Histogram
	inflight          *obs.Gauge // admitted session-scoped requests in flight
	admissionWaiting  *obs.Gauge // requests currently queued at the admission gate
}

// latBounds mirrors the serving layer's request-latency buckets.
var latBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

func newFleetMetrics() *fleetMetrics {
	reg := obs.NewRegistry()
	return &fleetMetrics{
		reg:               reg,
		requests:          reg.CounterVec("fleet_replica_requests_total", "replica"),
		errors:            reg.CounterVec("fleet_replica_errors_total", "replica"),
		hedgeFires:        reg.Counter("fleet_hedge_fires_total"),
		hedgeWins:         reg.Counter("fleet_hedge_wins_total"),
		retries:           reg.Counter("fleet_retries_total"),
		unready:           reg.CounterVec("fleet_unready_transitions_total", "replica"),
		admissionTimeouts: reg.Counter("fleet_admission_timeouts_total"),
		sessionsCreated:   reg.Counter("fleet_sessions_created_total"),
		createRedraws:     reg.Counter("fleet_create_redraws_total"),
		swaps:             reg.Counter("fleet_rolling_swaps_total"),
		latency:           reg.Histogram("fleet_request_seconds", latBounds),
		inflight:          reg.Gauge("fleet_inflight"),
		admissionWaiting:  reg.Gauge("fleet_admission_waiting"),
	}
}

// registerCollectors adds the live-state gauges that render from the pool
// rather than stored counters. fleet_inflight and fleet_admission_waiting are
// real gauges maintained by admit/release, not per-scrape snapshot loops.
func (m *fleetMetrics) registerCollectors(p *Pool) {
	m.reg.Collector("fleet_replicas_ready", func(w io.Writer) {
		n := 0
		for _, r := range p.replicas {
			if r.Ready() {
				n++
			}
		}
		fmt.Fprintf(w, "# TYPE fleet_replicas_ready gauge\n")
		fmt.Fprintf(w, "fleet_replicas_ready %d\n", n)
	})
}
