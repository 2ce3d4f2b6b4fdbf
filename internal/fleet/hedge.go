package fleet

// Request hedging for the idempotent base reads (GET /slacks, /gradients).
// The committed base is byte-identical on every replica booted from the same
// snapshot, so a read can be answered anywhere — which makes the classic
// tail-cutting move legal: send to one replica, and if it hasn't answered
// within a delay derived from the observed p95, send a second copy to a
// *different* replica and take whichever answers first. The straggler's
// response is discarded and its connection cancelled. Hedges are bounded to
// one per request and fire only past the p95, so steady-state load inflation
// stays under ~5% while the p99/p999 collapses toward the median of the
// second-fastest replica.

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"insta/internal/obs/shell"
	"insta/internal/server"
)

// latTracker is a fixed 256-entry ring of recent read latencies; p95 over the
// ring sets the hedge delay. A ring (not a histogram) keeps the estimate
// adaptive: 256 samples of history is enough to be stable and small enough to
// forget a load shift within a few hundred requests.
type latTracker struct {
	mu   sync.Mutex
	ring [256]time.Duration
	n    int // total observations
}

func newLatTracker() *latTracker { return &latTracker{} }

func (t *latTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.n&255] = d
	t.n++
	t.mu.Unlock()
}

// p95 returns the 95th percentile of the ring, or 0 with fewer than 8
// samples (callers fall back to HedgeMin while the estimate warms up).
func (t *latTracker) p95() time.Duration {
	t.mu.Lock()
	n := t.n
	if n > 256 {
		n = 256
	}
	if n < 8 {
		t.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, t.ring[:n])
	t.mu.Unlock()
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	return buf[(n*95)/100]
}

// hedgeDelay is the current hedge trigger: observed read p95 clamped into
// [HedgeMin, HedgeMax].
func (p *Pool) hedgeDelay() time.Duration {
	d := p.readLat.p95()
	if d < p.opt.HedgeMin {
		d = p.opt.HedgeMin
	}
	if d > p.opt.HedgeMax {
		d = p.opt.HedgeMax
	}
	return d
}

// pickRead returns the next ready replica for a base read, round-robin,
// skipping exclude (the hedge's primary). Draining replicas still serve
// reads — the base is committed state, unaffected by the drain — but are
// deprioritized so the drain isn't slowed; they are used only when no
// non-draining replica is ready.
func (p *Pool) pickRead(exclude *Replica) *Replica {
	n := uint64(len(p.replicas))
	start := p.rr.Add(1)
	var drainFallback *Replica
	for i := uint64(0); i < n; i++ {
		r := p.replicas[(start+i)%n]
		if r == exclude || !r.Healthy() {
			continue
		}
		if r.Draining() {
			if drainFallback == nil {
				drainFallback = r
			}
			continue
		}
		return r
	}
	return drainFallback
}

// readResult is one completed hedge attempt.
type readResult struct {
	resp   *http.Response
	rep    *Replica
	cancel func()
	hedged bool
	err    error
}

// hedgedRead serves one idempotent base read. The primary attempt goes out
// immediately; a hedge fires to a different replica if the primary neither
// answers nor errors within hedgeDelay. A primary *error* fails over
// immediately instead of waiting (that path counts as a retry, not a hedge).
// First successful response wins; the loser is cancelled and drained.
func (p *Pool) hedgedRead(w *shell.Req, r *http.Request, primary *Replica) {
	path := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	results := make(chan readResult, 2)
	launch := func(rep *Replica, hedged bool) {
		// Detached context: the loser must be cancellable independently of
		// the client request, and a straggler must not be killed by the
		// winner finishing first. reapReads owns cleanup either way.
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.URL()+path, nil)
		if err != nil {
			cancel()
			results <- readResult{rep: rep, hedged: hedged, err: err}
			return
		}
		// Each racing attempt is its own span under the request's root, so a
		// stitched trace shows the hedge race: two read-attempt spans sharing
		// one trace id, each parenting its replica's serve span. The loser's
		// span ends when its response (or error) lands, which may be after
		// the root has ended — the tracer is append-only, so that is fine.
		asp := w.Span().ChildArg("read-attempt", "replica", int64(rep.ID))
		req.Header.Set("Traceparent", w.Downstream(asp))
		p.met.requests.With(rep.idStr).Inc()
		rep.requests.Add(1)
		resp, err := p.client.Do(req)
		asp.End()
		if err != nil {
			cancel()
			rep.errors.Add(1)
			p.met.errors.With(rep.idStr).Inc()
			results <- readResult{rep: rep, hedged: hedged, err: err}
			return
		}
		results <- readResult{resp: resp, rep: rep, cancel: cancel, hedged: hedged}
	}

	t0 := time.Now()
	launched := 1
	go launch(primary, false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	canHedge := !p.opt.DisableHedge && len(p.replicas) > 1
	if canHedge {
		hedgeTimer = time.NewTimer(p.hedgeDelay())
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}

	fireSecond := func(isHedge bool) {
		second := p.pickRead(primary)
		if second == nil {
			if isHedge {
				return
			}
			// Failover with no alternative replica: retry the primary itself.
			second = primary
		}
		if isHedge {
			p.met.hedgeFires.Inc()
		} else {
			p.met.retries.Inc()
		}
		launched++
		go launch(second, true)
	}

	var winner readResult
	var lastErr error
	done := 0
	for winner.resp == nil && done < launched {
		select {
		case res := <-results:
			done++
			if res.err != nil {
				lastErr = res.err
				// Immediate failover: don't sit out the hedge delay when the
				// primary is already known dead.
				if launched == 1 {
					fireSecond(false)
				}
				continue
			}
			winner = res
		case <-hedgeC:
			hedgeC = nil
			if launched == 1 {
				fireSecond(true)
			}
		case <-r.Context().Done():
			// Client went away; the detached attempt contexts outlive it only
			// until the drain goroutine below reaps them.
			go reapReads(results, launched-done)
			server.WriteError(w, http.StatusServiceUnavailable, r.Context().Err())
			return
		}
	}
	if winner.resp == nil {
		server.WriteError(w, http.StatusBadGateway, lastErr)
		return
	}
	// Reap the loser (if any attempt is still outstanding) off-path.
	if done < launched {
		go reapReads(results, launched-done)
	}
	if winner.hedged {
		p.met.hedgeWins.Inc()
	}
	w.Replica = int32(winner.rep.ID)
	copyResponse(w, winner.resp)
	winner.cancel()
	p.readLat.observe(time.Since(t0))
	p.met.latency.Observe(time.Since(t0).Seconds())
}

// reapReads drains n outstanding attempt results, closing bodies and
// cancelling contexts so hedged losers don't leak connections.
func reapReads(results <-chan readResult, n int) {
	for i := 0; i < n; i++ {
		res := <-results
		if res.resp != nil {
			io.Copy(io.Discard, res.resp.Body)
			res.resp.Body.Close()
		}
		if res.cancel != nil {
			res.cancel()
		}
	}
}
