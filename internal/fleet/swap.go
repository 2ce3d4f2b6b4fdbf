package fleet

// Rolling snapshot-swap: restart every replica on a new snapshot, one at a
// time, without dropping a single session. The sequence per replica:
//
//  1. mark it draining — new sessions divert to redrawn keys elsewhere,
//     while its resident sessions keep being served in place;
//  2. wait until it is quiescent: the router's admitted in-flight count hits
//     zero AND the replica's own /healthz reports zero live sessions (the
//     load fields added for exactly this — the replica itself knows when its
//     last session closed, the router only knows what it routed);
//  3. call Options.Swap, which restarts the backend (the in-process daemon
//     replaced) on the new snapshot — the backend's own teardown persists
//     its committed base first (server.Daemon.Close);
//  4. wait for the health check to pass again, then clear draining.
//
// Zero dropped sessions falls out of step 2: no session-scoped request can
// be in flight or arrive later for a replica with no live sessions, because
// sessions are created on, and permanently routed to, exactly one replica.
// The guarantee assumes sessions close in bounded time (clients DELETE them,
// or the replica's idle TTL sweeps them); RollingSwap otherwise waits until
// ctx expires and reports the stall.

import (
	"context"
	"fmt"
	"time"
)

// SwapReport summarizes one rolling swap.
type SwapReport struct {
	Replicas int       `json:"replicas"`
	Swapped  int       `json:"swapped"`
	DrainMS  []float64 `json:"drain_ms"` // per-replica quiescence wait
	TotalMS  float64   `json:"total_ms"`
}

// RollingSwap drains and swaps every replica in turn. On error (or ctx
// expiry) the partially swapped fleet keeps serving — replicas already
// swapped stay swapped, the failing replica's draining bit is cleared so it
// rejoins placement, and the report says how far the roll got.
func (p *Pool) RollingSwap(ctx context.Context) (*SwapReport, error) {
	if p.opt.Swap == nil {
		return nil, ErrNoSwap
	}
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	t0 := time.Now()
	report := &SwapReport{Replicas: len(p.replicas)}
	for _, r := range p.replicas {
		r.draining.Store(true)
		d0 := time.Now()
		if err := p.awaitQuiescent(ctx, r); err != nil {
			r.draining.Store(false)
			report.TotalMS = msSince(t0)
			return report, fmt.Errorf("fleet: drain replica %d: %w", r.ID, err)
		}
		report.DrainMS = append(report.DrainMS, msSince(d0))
		p.log.Info("fleet: swapping replica", "replica", r.ID, "drained_ms", msSince(d0))
		if err := p.opt.Swap(ctx, r); err != nil {
			r.draining.Store(false)
			report.TotalMS = msSince(t0)
			return report, fmt.Errorf("fleet: swap replica %d: %w", r.ID, err)
		}
		if err := p.awaitReady(ctx, r); err != nil {
			r.draining.Store(false)
			report.TotalMS = msSince(t0)
			return report, fmt.Errorf("fleet: replica %d not ready after swap: %w", r.ID, err)
		}
		r.draining.Store(false)
		report.Swapped++
		p.met.swaps.Inc()
	}
	report.TotalMS = msSince(t0)
	return report, nil
}

// awaitQuiescent polls until r has no admitted in-flight requests and
// reports no live sessions.
func (p *Pool) awaitQuiescent(ctx context.Context, r *Replica) error {
	for {
		if r.inflight.Load() == 0 && p.checkOnce(r) {
			h := r.Health()
			if h.OK && h.LiveSessions == 0 && h.Inflight == 0 {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(drainPoll):
		}
	}
}

// awaitReady polls until r's health check passes on its (possibly new) URL.
func (p *Pool) awaitReady(ctx context.Context, r *Replica) error {
	for {
		if p.checkOnce(r) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(drainPoll):
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
