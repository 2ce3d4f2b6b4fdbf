package server

// The daemon's JSON response bodies, one named struct per shape, with the
// fields declared in wire order: the sorted key order the responses had when
// they were maps, which clients and the benchmark's oracle compare bytes
// against (TestWireGolden). Optional keys are omitempty. The bodies the
// session API returns as well (ECOResult, TopoResult, EndpointSlack,
// ScenarioView, StageGrad, BootInfo) are declared with it; the exported ones
// here are those the fleet router decodes.

import (
	"insta/internal/obs"
	"insta/internal/obs/shell"
)

type errorBody struct {
	Error string `json:"error"`
}

// Healthz is GET /healthz.
type Healthz struct {
	Boot    *BootInfo            `json:"boot,omitempty"`
	Design  Info                 `json:"design"`
	Epoch   uint64               `json:"epoch"`
	Flight  *shell.FlightSummary `json:"flight_recorder,omitempty"`
	Latency *latencyQuantiles    `json:"latency_s,omitempty"` // once a request was observed
	// Load is the live-load section a fleet router keys admission and
	// draining off.
	Load     Load           `json:"load"`
	Sessions int            `json:"sessions"`
	SLO      []obs.BurnRate `json:"slo,omitempty"`
	Status   string         `json:"status"`
	UptimeS  float64        `json:"uptime_s"`
}

// Load is the live-load section of Healthz.
type Load struct {
	Headroom     int `json:"headroom"`
	Inflight     int `json:"inflight"`
	LiveSessions int `json:"live_sessions"`
	MaxSessions  int `json:"max_sessions"`
}

type latencyQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// baseSlacks is GET /slacks.
type baseSlacks struct {
	Corners    []ScenarioView  `json:"corners,omitempty"`
	Endpoints  int             `json:"endpoints"`
	Epoch      uint64          `json:"epoch"`
	Scenario   string          `json:"scenario,omitempty"`
	TNS        float64         `json:"tns"`
	Violations int             `json:"violations"`
	WNS        float64         `json:"wns"`
	Worst      []EndpointSlack `json:"worst,omitempty"`
}

// gradients is GET /gradients.
type gradients struct {
	Epoch  uint64      `json:"epoch"`
	Stages []StageGrad `json:"stages"`
}

// Created is POST /session.
type Created struct {
	Epoch uint64 `json:"epoch"`
	ID    string `json:"id"`
}

// sessionView is GET /session/{id}.
type sessionView struct {
	ECOs int        `json:"ecos"`
	ID   string     `json:"id"`
	View *ECOResult `json:"view"`
}

// sessionSlacks is GET /session/{id}/slacks.
type sessionSlacks struct {
	ID         string    `json:"id"`
	Scenario   string    `json:"scenario,omitempty"`
	Slacks     []float64 `json:"slacks"`
	TNS        float64   `json:"tns"`
	Violations int       `json:"violations"`
	WNS        float64   `json:"wns"`
}

// snapshotSaved is POST /admin/snapshot.
type snapshotSaved struct {
	Bytes int64  `json:"bytes"`
	Epoch uint64 `json:"epoch"`
	Key   string `json:"key"`
	Path  string `json:"path"`
}

// closed is DELETE /session/{id}.
type closed struct {
	Closed string `json:"closed"`
}

// rolledBack is POST /session/{id}/rollback.
type rolledBack struct {
	Epoch      uint64 `json:"epoch"`
	RolledBack string `json:"rolled_back"`
}
