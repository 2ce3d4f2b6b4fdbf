// Package shell is the request shell the serving daemon and the fleet router
// both run their work routes in (DESIGN.md §15): trace identity in and out,
// status capture, timing, one flight-recorder record and one SLO sample per
// completed request, the /debug/flightrecorder and pprof mounts, and the
// flight_recorder/slo sections of /healthz. Each side contributes only what it
// alone knows, through the per-request handle Begin returns: the daemon stamps
// the epoch and structural generation it finished at, the router the shard
// key, the replica it placed the request on and the admission wait.
//
// It is a package of its own, not part of obs, so the kernels that import obs
// for the tracer do not link net/http.
package shell

import (
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"insta/internal/obs"
)

// Options configures New. The zero value is serviceable: a 4096-entry
// recorder pinning at 250 ms, a 100 ms / 1 % SLO, trace ids without spans.
type Options struct {
	Tracer       *obs.Tracer   // request spans; nil = trace ids only
	FlightSize   int           // request ring entries; 0 = 4096, < 0 = no recorder
	FlightPin    time.Duration // latency at which a request pins as an anomaly; <= 0 = 250 ms
	SLOObjective time.Duration // per-request latency objective; <= 0 = 100 ms
	SLOBudget    float64       // error budget fraction; <= 0 = 0.01
}

// Shell holds what outlives a request; not to be modified once serving. A nil
// *Shell is the shell switched off: Begin still captures status and time, and
// records nothing.
type Shell struct {
	Tracer *obs.Tracer         // nil = trace ids only
	Flight *obs.FlightRecorder // nil = no recorder
	SLO    *obs.SLOTracker
}

// New builds a shell.
func New(opt Options) *Shell {
	s := &Shell{
		Tracer: opt.Tracer,
		SLO:    obs.NewSLOTracker(obs.SLOOptions{Objective: opt.SLOObjective, ErrorBudget: opt.SLOBudget}),
	}
	if opt.FlightSize >= 0 {
		s.Flight = obs.NewFlightRecorder(obs.FlightRecorderOptions{Size: opt.FlightSize, PinThreshold: opt.FlightPin, Tracer: opt.Tracer})
	}
	return s
}

// Req is one request inside the shell: the ResponseWriter its handler writes
// to (the status is captured on the way through) and the handle the handler
// leaves its side's facts on before End turns them into the request's record.
type Req struct {
	http.ResponseWriter

	Shard   string // router: the session's consistent-hash key
	Replica int32  // router: the replica the request was placed on; -1 = none
	QueueNs int64  // router: admission wait, part of the total
	Epoch   uint64 // daemon: timing epoch at completion
	TopoGen uint64 // daemon: structural generation at completion

	sh   *Shell
	sc   obs.SpanContext
	sp   *obs.Span
	code int
	t0   time.Time
}

// Begin opens a request: it joins the caller's trace from the Traceparent
// header or mints one, opens the root span named span when the tracer is on,
// echoes the context on the response and starts the clock. On a nil shell it
// only starts the clock.
func (s *Shell) Begin(span string, w http.ResponseWriter, r *http.Request) *Req {
	rq := &Req{ResponseWriter: w, Replica: -1, sh: s}
	if s != nil {
		rq.sc, _ = obs.ParseTraceparent(r.Header.Get("Traceparent"))
		if rq.sp = s.Tracer.StartRemote(span, rq.sc); rq.sp != nil {
			rq.sc = rq.sp.Context()
		} else if rq.sc.Trace.IsZero() {
			rq.sc.Trace = obs.NewTraceID()
		}
		w.Header().Set("Traceparent", obs.Traceparent(rq.sc))
	}
	rq.t0 = time.Now()
	return rq
}

// WriteHeader captures the status on its way to the client.
func (rq *Req) WriteHeader(code int) {
	if rq.code == 0 {
		rq.code = code
	}
	rq.ResponseWriter.WriteHeader(code)
}

// Span returns the request's root span, nil when spans are off.
func (rq *Req) Span() *obs.Span { return rq.sp }

// Downstream is the Traceparent value to send with an attempt made on this
// request's behalf: the attempt span's context when spans are on, so the
// callee's serve span parents to the attempt, else the request's own, so the
// callee still joins the trace.
func (rq *Req) Downstream(attempt *obs.Span) string {
	if c := attempt.Context(); !c.Trace.IsZero() {
		return obs.Traceparent(c)
	}
	return obs.Traceparent(rq.sc)
}

// End closes the request under its route label: the span ends, the one
// record and the one SLO sample are written, and the status and duration are
// returned for the caller's own metrics and log line.
func (rq *Req) End(route string) (code int, d time.Duration) {
	d = time.Since(rq.t0)
	rq.sp.End()
	if code = rq.code; code == 0 {
		code = http.StatusOK
	}
	if s := rq.sh; s != nil {
		now := rq.t0.Add(d)
		s.Flight.Record(obs.ReqRecord{
			Trace:   rq.sc.Trace,
			Route:   route,
			Shard:   rq.Shard,
			Replica: rq.Replica,
			Status:  int32(code),
			QueueNs: rq.QueueNs,
			ServeNs: int64(d) - rq.QueueNs,
			TotalNs: int64(d),
			Epoch:   rq.Epoch,
			TopoGen: rq.TopoGen,
			Unix:    now.UnixNano(),
		})
		s.SLO.Record(d, code >= 500, now)
	}
	return code, d
}

// FlightSummary is the flight_recorder section of a /healthz body. Pinned is
// filled in by the router's /debug/fleet only.
type FlightSummary struct {
	PinThreshold float64 `json:"pin_threshold_s"`
	Pinned       *int    `json:"pinned,omitempty"`
	Size         int     `json:"size"`
	Total        uint64  `json:"total"`
}

// FlightSummary describes the recorder, or returns nil without one.
func (s *Shell) FlightSummary() *FlightSummary {
	if s == nil || s.Flight == nil {
		return nil
	}
	fr := s.Flight
	return &FlightSummary{PinThreshold: fr.PinThreshold().Seconds(), Size: fr.Size(), Total: fr.Total()}
}

// Burn is the slo section of a /healthz body: the burn state of every window,
// nil on a nil shell.
func (s *Shell) Burn() []obs.BurnRate {
	if s == nil {
		return nil
	}
	return s.SLO.Snapshot(time.Now())
}

// Mount adds the shell's debug surface to mux: GET /debug/flightrecorder (the
// request ring with its pinned anomalies; 501 without a recorder, so the
// route exists in every configuration) and net/http/pprof under /debug/pprof/.
func (s *Shell) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.Flight == nil {
			w.WriteHeader(http.StatusNotImplemented)
			_, _ = io.WriteString(w, `{"error":"flight recorder disabled"}`+"\n")
			return
		}
		_ = s.Flight.WriteJSON(w)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
