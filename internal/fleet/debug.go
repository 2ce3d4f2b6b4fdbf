package fleet

// The router's own debug views (DESIGN.md §15): one request's span tree
// stitched across the router and its in-process replicas, and the fleet-wide
// operator scrape. The request shell the work routes run in — trace identity,
// flight recorder, SLO samples, /debug/flightrecorder, pprof — is
// internal/obs/shell, shared with the daemon.

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

var errBadTraceID = errors.New("fleet: bad trace id (want 32 hex digits)")

// handleStitchedTrace exports one request's merged span tree as a Chrome
// trace_event file: the router's stream plus any registered replica streams
// (AddTraceStream — inproc mode wires every replica tracer). In attach mode
// only the router stream is local, so the export shows the routing half;
// replica-side spans live in the replica processes' own /debug/trace surface.
func (p *Pool) handleStitchedTrace(w http.ResponseWriter, r *http.Request) {
	trace, ok := obs.ParseTraceID(r.PathValue("trace"))
	if !ok {
		server.WriteError(w, http.StatusBadRequest, errBadTraceID)
		return
	}
	streams := append([]obs.StitchStream{{Name: "router", Tracer: p.sh.Tracer}}, p.streams...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename=\"trace-"+trace.String()+".json\"")
	_ = obs.WriteStitchedChromeTrace(w, trace, streams...)
}

// handleDebugFleet is the fleet-wide operator view: a live parallel scrape of
// every replica's /healthz (not the health loop's cached copy — an operator
// chasing an incident wants now, not one probe period ago), the router's SLO
// burn rates and recorder state, and per-shard skew over live sessions and
// epochs. Session-count skew exposes placement imbalance; epoch skew exposes
// replicas serving different committed bases after a partial swap.
func (p *Pool) handleDebugFleet(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	views := make([]replicaScrape, len(p.replicas))
	var wg sync.WaitGroup
	for i, rep := range p.replicas {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			v := replicaScrape{ID: rep.ID, URL: rep.URL(), State: rep.state(), Inflight: rep.inflight.Load()}
			if h, err := fetchHealthz(ctx, p.client, rep.URL()); err != nil {
				v.Err = err.Error()
			} else {
				v.Sessions, v.Epoch = h.LiveSessions, h.Epoch
			}
			views[i] = v
		}(i, rep)
	}
	wg.Wait()

	resp := debugFleet{
		Flight:       p.sh.FlightSummary(),
		HedgeDelayMS: float64(p.hedgeDelay().Nanoseconds()) / 1e6,
		Replicas:     views,
		SLO:          p.sh.Burn(),
	}
	if resp.Flight != nil {
		pinned := len(p.sh.Flight.Pinned())
		resp.Flight.Pinned = &pinned
	}
	sk, sum := &resp.Skew, 0
	for _, v := range views {
		if v.Err != "" {
			continue
		}
		if resp.Scraped == 0 || v.Sessions < sk.SessionsMin {
			sk.SessionsMin = v.Sessions
		}
		if resp.Scraped == 0 || v.Epoch < sk.EpochMin {
			sk.EpochMin = v.Epoch
		}
		sk.SessionsMax, sk.EpochMax = max(sk.SessionsMax, v.Sessions), max(sk.EpochMax, v.Epoch)
		sum += v.Sessions
		resp.Scraped++
	}
	if resp.Scraped > 0 {
		sk.SessionsMean = float64(sum) / float64(resp.Scraped)
	}
	server.WriteJSON(w, http.StatusOK, &resp)
}

// replicaScrape is one replica's row in /debug/fleet.
type replicaScrape struct {
	ID       int    `json:"id"`
	URL      string `json:"url"`
	State    string `json:"state"`
	Inflight int64  `json:"inflight"` // router-side admitted requests
	Sessions int    `json:"live_sessions"`
	Epoch    uint64 `json:"epoch"`
	Err      string `json:"err,omitempty"`
}

// debugFleet is the GET /debug/fleet body, fields in wire order.
type debugFleet struct {
	Flight       *shell.FlightSummary `json:"flight_recorder,omitempty"`
	HedgeDelayMS float64              `json:"hedge_delay_ms"`
	Replicas     []replicaScrape      `json:"replicas"`
	Scraped      int                  `json:"scraped"`
	Skew         struct {
		EpochMax     uint64  `json:"epoch_max"`
		EpochMin     uint64  `json:"epoch_min"`
		SessionsMax  int     `json:"sessions_max"`
		SessionsMean float64 `json:"sessions_mean"`
		SessionsMin  int     `json:"sessions_min"`
	} `json:"skew"`
	SLO []obs.BurnRate `json:"slo"`
}
