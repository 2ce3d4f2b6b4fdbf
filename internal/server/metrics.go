package server

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"insta/internal/obs"
)

// latBounds are the latency histogram bucket upper bounds in seconds,
// log-spaced from 100µs to ~13s — session ECO evals land in the low
// milliseconds on block-size designs, full commits a decade above.
var latBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 13,
}

// metrics is the serving telemetry, built on the shared obs registry: request
// counters and latency histograms are stored series, while the session
// lifecycle gauges and the engine's kernel telemetry render live through
// collectors. Family registration order fixes the /metrics exposition order,
// which server_test.go pins byte-for-byte against the pre-obs output.
type metrics struct {
	reg              *obs.Registry
	requests         *obs.CounterVec
	latency          *obs.Histogram // all routes
	ecoLat           *obs.Histogram // POST /session/{id}/eco only
	admissionRejects *obs.Counter   // session creates refused at the cap
	inflight         *obs.Gauge     // work requests currently inside a handler
}

func newMetrics(m *Manager) *metrics {
	reg := obs.NewRegistry()
	mt := &metrics{
		reg:              reg,
		requests:         reg.CounterVec("insta_requests_total", "route", "code"),
		latency:          reg.Histogram("insta_request_seconds", latBounds),
		ecoLat:           reg.Histogram("insta_eco_seconds", latBounds),
		admissionRejects: reg.Counter("insta_admission_rejects_total"),
		inflight:         reg.Gauge("insta_inflight"),
	}
	reg.Collector("insta_sessions", func(w io.Writer) {
		c := m.Counters()
		fmt.Fprintf(w, "# TYPE insta_sessions gauge\n")
		fmt.Fprintf(w, "insta_sessions_live %d\n", m.NumSessions())
		fmt.Fprintf(w, "insta_sessions_created_total %d\n", c.Created)
		fmt.Fprintf(w, "insta_sessions_rejected_total %d\n", c.Rejected)
		fmt.Fprintf(w, "insta_sessions_evicted_total %d\n", c.Evicted)
		fmt.Fprintf(w, "insta_commits_total %d\n", c.Commits)
		fmt.Fprintf(w, "insta_rollbacks_total %d\n", c.Rollbacks)
		fmt.Fprintf(w, "insta_eco_batches_total %d\n", c.ECOs)
		fmt.Fprintf(w, "insta_base_epoch %d\n", m.Epoch())
		fmt.Fprintf(w, "insta_base_wns_ps %g\n", m.BaseWNS())
		fmt.Fprintf(w, "insta_base_tns_ps %g\n", m.BaseTNS())
	})
	reg.Collector("insta_kernel", func(w io.Writer) {
		stats := m.Engine().Pool().Stats()
		if stats == nil {
			return
		}
		fmt.Fprintf(w, "# TYPE insta_kernel gauge\n")
		for _, p := range stats.Snapshot() {
			fmt.Fprintf(w, "insta_kernel_launches_total{kernel=%q} %d\n", p.Kernel, p.Launches)
			fmt.Fprintf(w, "insta_kernel_spans_total{kernel=%q} %d\n", p.Kernel, p.Spans)
			fmt.Fprintf(w, "insta_kernel_wall_seconds_total{kernel=%q} %g\n", p.Kernel, p.Wall.Seconds())
		}
	})
	reg.Collector("insta_topo", func(w io.Writer) {
		t := m.TopoCountersSnapshot()
		fmt.Fprintf(w, "# TYPE insta_topo gauge\n")
		fmt.Fprintf(w, "insta_topo_edits_total %d\n", t.Edits)
		fmt.Fprintf(w, "insta_topo_buffers_inserted_total %d\n", t.Inserted)
		fmt.Fprintf(w, "insta_topo_buffers_removed_total %d\n", t.Removed)
		fmt.Fprintf(w, "insta_topo_commits_total %d\n", t.Commits)
		fmt.Fprintf(w, "insta_topo_conflicts_total %d\n", t.Conflicts)
		fmt.Fprintf(w, "insta_base_topo_gen %d\n", m.TopoGen())
		m.RelevelHist().WritePrometheus(w, "insta_topo_relevel_levels")
	})
	// What open sessions hold in the served engine's overlay rows, and what
	// the served engine itself holds resident (core.Engine.MemoryBytes, read
	// under the read lock a commit excludes). Sessions still bound to an
	// engine a structural commit replaced are not counted: their rows move
	// over when they rebase. Nor are the rows of a structural session's
	// previews: they count on its working engine until a commit serves it.
	reg.Collector("insta_overlay", func(w io.Writer) {
		rows, bytes := m.Engine().OverlayRows()
		m.mu.RLock()
		resident := m.eng.MemoryBytes()
		m.mu.RUnlock()
		fmt.Fprintf(w, "# TYPE insta_overlay gauge\n")
		fmt.Fprintf(w, "insta_overlay_rows %d\n", rows)
		fmt.Fprintf(w, "insta_overlay_bytes %d\n", bytes)
		fmt.Fprintf(w, "insta_engine_bytes %d\n", resident)
	})
	// The session reads' slack text cache: endpoints answered by copying
	// cached text against endpoints formatted, lane renders, memory held.
	reg.Collector("insta_slack_text", func(w io.Writer) {
		c := &m.slackText
		fmt.Fprintf(w, "# TYPE insta_slack_text gauge\n")
		fmt.Fprintf(w, "insta_slack_text_hits_total %d\n", c.hits.Load())
		fmt.Fprintf(w, "insta_slack_text_formats_total %d\n", c.formats.Load())
		fmt.Fprintf(w, "insta_slack_text_rebuilds_total %d\n", c.rebuilds.Load())
		fmt.Fprintf(w, "insta_slack_text_bytes %d\n", c.bytes())
	})
	// Snapshot cache counters render last so the exposition order of the
	// families above stays byte-stable for servers without a cache.
	if c := m.opt.Snapshots; c != nil {
		c.Register(reg)
	}
	return mt
}

// routeCount is one route's request counter for the status it answered
// last, bound on the first request with that status: a route answers one
// status nearly always, so the series look-up — a label key and the status
// text — is paid when the status changes, not per request. A series is
// still created only when a request first lands in it.
type routeCount struct {
	name string
	last atomic.Pointer[statusCounter]
}

type statusCounter struct {
	code int
	c    *obs.Counter
}

func (mt *metrics) observe(rt *routeCount, code int, d time.Duration) {
	sc := rt.last.Load()
	if sc == nil || sc.code != code {
		sc = &statusCounter{code, mt.requests.With(rt.name, strconv.Itoa(code))}
		rt.last.Store(sc)
	}
	sc.c.Inc()
	sec := d.Seconds()
	mt.latency.Observe(sec)
	if rt.name == "eco" {
		mt.ecoLat.Observe(sec)
	}
}

// write renders the full exposition: request counts by route and status, the
// latency histograms, session lifecycle counters, and the engine's kernel
// telemetry when kernel stats are enabled.
func (mt *metrics) write(w io.Writer) {
	mt.reg.WritePrometheus(w)
}
