package fleet

// Health checking: one goroutine per replica polls GET /healthz on
// Options.HealthInterval and decodes the daemon's own body type
// (server.Healthz), whose load section exists for exactly this consumer.
// Readiness is asymmetric by design — slow to fall (UnreadyAfter consecutive
// failures, so one dropped probe during a GC pause doesn't flap the replica
// out), instant to rise (the first success re-admits it, so recovery latency
// is one probe period).

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"insta/internal/server"
)

func (p *Pool) healthLoop(r *Replica) {
	defer p.wg.Done()
	tick := time.NewTicker(p.opt.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.checkOnce(r)
		}
	}
}

// checkOnce probes r once and folds the outcome into its readiness state.
// Returns whether the probe succeeded.
func (p *Pool) checkOnce(r *Replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.opt.HealthTimeout)
	defer cancel()
	h, err := fetchHealthz(ctx, p.client, r.URL())
	if err != nil {
		r.setHealth(Health{OK: false, Err: err.Error()})
		fails := r.fails.Add(1)
		if int(fails) >= p.opt.UnreadyAfter && r.healthy.Swap(false) {
			p.met.unready.With(r.idStr).Inc()
			p.log.Warn("fleet: replica unready", "replica", r.ID, "url", r.URL(), "err", err)
		}
		return false
	}
	r.fails.Store(0)
	r.setHealth(h)
	if !r.healthy.Swap(true) {
		p.log.Info("fleet: replica ready", "replica", r.ID, "url", r.URL(),
			"sessions", h.LiveSessions, "epoch", h.Epoch)
	}
	return true
}

// fetchHealthz performs one /healthz probe and maps it into a Health.
func fetchHealthz(ctx context.Context, client *http.Client, baseURL string) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Health{}, &statusError{code: resp.StatusCode}
	}
	var hz server.Healthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return Health{}, err
	}
	return Health{OK: true, Load: hz.Load, Epoch: hz.Epoch}, nil
}

// statusError is a non-2xx health probe.
type statusError struct{ code int }

func (e *statusError) Error() string { return "fleet: healthz status " + http.StatusText(e.code) }
