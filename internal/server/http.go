package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"insta/internal/core"
	"insta/internal/obs"
)

// Info describes the served design for /healthz.
type Info struct {
	Design    string   `json:"design"`
	Pins      int      `json:"pins"`
	Arcs      int      `json:"arcs"`
	Endpoints int      `json:"endpoints"`
	Levels    int      `json:"levels"`
	TopK      int      `json:"top_k"`
	Workers   int      `json:"workers"`
	Corners   []string `json:"corners,omitempty"` // multi-corner servers only
}

// Server is the HTTP front end over a Manager.
type Server struct {
	mgr   *Manager
	info  Info
	met   *metrics
	mux   *http.ServeMux
	start time.Time
	log   *slog.Logger

	// Request observability, all optional and nil-tolerant on the hot path:
	// tr opens a "serve-<route>" span per work request (joined to the
	// caller's trace via the Traceparent header), fr records every work
	// request into the flight-recorder ring, slo feeds the burn-rate
	// tracker. Wire via EnableTracing/EnableFlightRecorder/EnableSLO before
	// serving.
	tr  *obs.Tracer
	fr  *obs.FlightRecorder
	slo *obs.SLOTracker
}

// New builds the HTTP layer. The design name is the only field the manager
// cannot derive itself; everything else in Info is filled from the engine.
func New(mgr *Manager, design string) *Server {
	e := mgr.Engine()
	s := &Server{
		mgr: mgr,
		info: Info{
			Design:    design,
			Pins:      e.NumPins(),
			Arcs:      e.NumArcs(),
			Endpoints: len(e.Endpoints()),
			Levels:    e.NumLevels(),
			TopK:      e.TopK(),
			Workers:   e.Pool().Workers(),
		},
		start: time.Now(),
		log:   slog.Default(),
	}
	s.met = newMetrics(mgr)
	if be := mgr.Batch(); be != nil {
		for _, scn := range be.Scenarios() {
			s.info.Corners = append(s.info.Corners, scn.Name)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	mux.HandleFunc("GET /slacks", s.route("slacks", s.handleSlacks))
	mux.HandleFunc("GET /gradients", s.route("gradients", s.handleGradients))
	mux.HandleFunc("POST /session", s.route("session-create", s.handleCreate))
	mux.HandleFunc("GET /session/{id}", s.route("session-get", s.withSession(s.handleGet)))
	mux.HandleFunc("GET /session/{id}/slacks", s.route("session-slacks", s.withSession(s.handleSessionSlacks)))
	mux.HandleFunc("DELETE /session/{id}", s.route("session-delete", s.withSession(s.handleDelete)))
	mux.HandleFunc("POST /session/{id}/eco", s.route("eco", s.withSession(s.handleECO)))
	mux.HandleFunc("POST /session/{id}/topo", s.route("topo", s.withSession(s.handleTopo)))
	mux.HandleFunc("POST /session/{id}/commit", s.route("commit", s.withSession(s.handleCommit)))
	mux.HandleFunc("POST /session/{id}/rollback", s.route("rollback", s.withSession(s.handleRollback)))
	mux.HandleFunc("POST /admin/snapshot", s.route("admin-snapshot", s.handleSnapshot))
	s.mux = mux
	return s
}

// readHeaderTimeout bounds how long a connection may take to deliver its
// request headers, so a client trickling bytes (slowloris) cannot pin a
// goroutine and a file descriptor per connection for ever. Bodies are bounded
// by size (maxBodyBytes), not time: a long what-if is legitimate.
const readHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server insta-served and insta-router listen
// with: handler h on addr, header reads bounded by readHeaderTimeout.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// Manager returns the session manager the server fronts.
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the root handler to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// SetLogger replaces the request logger (slog.Default() until then).
func (s *Server) SetLogger(l *slog.Logger) { s.log = l }

// EnableTracing attaches the request span tracer: every work request gets a
// "serve-<route>" root span joined to the caller's trace when a Traceparent
// header arrives (the distributed-tracing hook the fleet router drives), and
// handlers find the span in the request context for sub-spans. A disabled
// tracer costs one branch per request; pass the same tracer to EnableDebug
// so /debug/trace?dur= windows capture request spans too.
func (s *Server) EnableTracing(tr *obs.Tracer) { s.tr = tr }

// EnableFlightRecorder attaches the always-on request ring: every completed
// work request is recorded (trace id, route, status, latency, epoch/topoGen),
// and anomalies pin their span trees. Dumped by GET /debug/flightrecorder
// (mounted by EnableDebug).
func (s *Server) EnableFlightRecorder(fr *obs.FlightRecorder) { s.fr = fr }

// FlightRecorder returns the attached recorder, or nil.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.fr }

// EnableSLO attaches the burn-rate tracker, feeds it every work request, and
// exports its gauges (insta_slo_burn_rate_<window>, objective, budget) on
// /metrics. /healthz grows an "slo" section. Call once, before serving.
func (s *Server) EnableSLO(t *obs.SLOTracker) {
	s.slo = t
	t.RegisterMetrics(s.met.reg, "insta")
}

// SLO returns the attached tracker, or nil.
func (s *Server) SLO() *obs.SLOTracker { return s.slo }

// EnableDebug mounts the profiling surface: the net/http/pprof handlers under
// /debug/pprof/ and, when tr is non-nil, GET /debug/trace?dur=SECONDS — a
// windowed capture that enables the tracer for the requested duration
// (default 1s, capped at 60s) and streams the spans recorded in that window
// as Chrome trace_event JSON. Call before serving; the debug surface is
// opt-in so embedded/test servers don't expose it by accident.
func (s *Server) EnableDebug(tr *obs.Tracer) {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	// Flight-recorder dump: the always-on request ring plus pinned
	// anomalies. 501 when no recorder is attached, so the route shape is
	// stable across configurations.
	s.mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		if s.fr == nil {
			writeErr(w, http.StatusNotImplemented, errors.New("server: no flight recorder attached"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = s.fr.WriteJSON(w)
	})
	if tr == nil {
		return
	}
	s.mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		dur := time.Second
		if v := r.URL.Query().Get("dur"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				// Bare numbers are seconds, the curl-friendly spelling.
				if n := intQuery(r, "dur", 0); n > 0 {
					d, err = time.Duration(n)*time.Second, nil
				}
			}
			if err != nil || d <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad dur %q", v))
				return
			}
			dur = d
		}
		if dur > time.Minute {
			dur = time.Minute
		}
		mark := tr.Mark()
		wasEnabled := tr.Enabled()
		tr.Enable()
		select {
		case <-time.After(dur):
		case <-r.Context().Done():
		}
		if !wasEnabled {
			tr.Disable()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename=insta-trace.json")
		_ = tr.WriteChromeTraceSince(w, mark)
	})
}

// statusWriter captures the response code for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// route wraps a handler with latency/count instrumentation under a stable
// route label (patterns with wildcards would explode the label space),
// request tracing + flight-recorder + SLO bookkeeping when enabled, and
// structured request logging: successes at Debug so production log volume is
// opt-in via the level, error statuses at Warn. The span name is precomputed
// so the disabled-observability path allocates nothing beyond the baseline.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	work := name != "healthz" && name != "metrics"
	spanName := "serve-" + name
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var sc obs.SpanContext
		var sp *obs.Span
		if work {
			s.met.inflight.Inc()
			if s.tr != nil || s.fr != nil {
				sc, _ = obs.ParseTraceparent(r.Header.Get("Traceparent"))
				sp = s.tr.StartRemote(spanName, sc)
				if sp != nil {
					sc = sp.Context()
					r = r.WithContext(obs.WithSpan(r.Context(), sp))
				} else if sc.Trace.IsZero() && s.fr != nil {
					sc.Trace = obs.NewTraceID()
				}
				if tp := obs.Traceparent(sc); tp != "" {
					sw.Header().Set("Traceparent", tp)
				}
			}
		}
		t0 := time.Now()
		h(sw, r)
		d := time.Since(t0)
		if work {
			s.met.inflight.Dec()
			sp.End()
			now := t0.Add(d)
			if s.fr != nil {
				s.fr.Record(obs.ReqRecord{
					Trace:   sc.Trace,
					Route:   name,
					Replica: -1,
					Status:  int32(sw.code),
					ServeNs: int64(d),
					TotalNs: int64(d),
					Epoch:   s.mgr.Epoch(),
					TopoGen: s.mgr.TopoGen(),
					Unix:    now.UnixNano(),
				})
			}
			s.slo.Record(d, sw.code >= 500, now)
		}
		s.met.observe(name, sw.code, d)
		level := slog.LevelDebug
		if sw.code >= 400 {
			level = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", name),
			slog.Int("status", sw.code),
			slog.Duration("duration", d),
		)
	}
}

// withSession resolves {id} or answers 404.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess := s.mgr.Get(r.PathValue("id"))
		if sess == nil {
			writeErr(w, http.StatusNotFound, errors.New("server: no such session"))
			return
		}
		h(w, r, sess)
	}
}

// writeJSON emits v as compact JSON through a pooled encoder: once a
// buffer in the pool has grown to the steady-state response size, the
// serialization itself costs no per-request allocations (see jsonenc.go).
// On an encoding error the status line is still sent with an empty body,
// matching the old json.Encoder behavior whose error was discarded after
// WriteHeader.
func writeJSON(w http.ResponseWriter, code int, v any) {
	e := encPool.Get().(*jsonEnc)
	b, err := e.appendValue(e.buf[:0], v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		b = append(b, '\n')
		_, _ = w.Write(b)
	}
	e.buf = b[:0]
	encPool.Put(e)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// errCode maps session-layer errors to HTTP statuses.
func errCode(err error) int {
	switch {
	case errors.Is(err, ErrTooManySessions):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrSessionClosed):
		return http.StatusGone
	case errors.Is(err, ErrNoRefEngine), errors.Is(err, ErrNoCorners), errors.Is(err, ErrNoSnapshots):
		return http.StatusNotImplemented
	case errors.Is(err, ErrUnknownScenario):
		return http.StatusNotFound
	case errors.Is(err, ErrStructuralConflict), errors.Is(err, ErrPendingAnnotations):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// Inflight reports how many work requests (anything but the /healthz and
// /metrics probes) are currently inside a handler, read from the
// insta_inflight gauge.
func (s *Server) Inflight() int64 { return int64(s.met.inflight.Value()) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := s.mgr.NumSessions()
	max := s.mgr.MaxSessions()
	resp := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
		"design":   s.info,
		"sessions": live,
		"epoch":    s.mgr.Epoch(),
		// The live-load section a fleet router keys admission and hedging
		// decisions off. Append-only: existing fields above never change shape.
		"load": map[string]any{
			"live_sessions": live,
			"max_sessions":  max,
			"headroom":      max - live,
			"inflight":      int(s.Inflight()),
		},
	}
	if bi := s.mgr.Boot(); bi != nil {
		resp["boot"] = bi
	}
	if s.slo != nil {
		resp["slo"] = s.slo.Snapshot(time.Now())
	}
	if s.fr != nil {
		resp["flight_recorder"] = map[string]any{
			"size":            s.fr.Size(),
			"total":           s.fr.Total(),
			"pin_threshold_s": s.fr.PinThreshold().Seconds(),
		}
	}
	if s.met.latency.Count() > 0 {
		resp["latency_s"] = map[string]float64{
			"p50": s.met.latency.Quantile(0.50),
			"p95": s.met.latency.Quantile(0.95),
			"p99": s.met.latency.Quantile(0.99),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w)
}

// slackBufPool recycles the per-request endpoint slack buffers of the two
// slack endpoints, so the steady-state read path reuses one full-design
// float64 slice instead of allocating it per request.
var slackBufPool = sync.Pool{New: func() any { return new([]float64) }}

// handleSlacks reports the committed base timing; ?worst=N adds the N worst
// endpoints with their pins, ?scenario=<name|merged> switches the slack set
// to one corner (multi-corner servers only). Everything in the response is
// read under one hold of the base lock, so it describes a single epoch.
func (s *Server) handleSlacks(w http.ResponseWriter, r *http.Request) {
	bufp := slackBufPool.Get().(*[]float64)
	defer func() { slackBufPool.Put(bufp) }()
	scn := r.URL.Query().Get("scenario")
	v, err := s.mgr.BaseViewInto(scn, (*bufp)[:0])
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	slacks := v.Slacks
	*bufp = slacks[:0]
	resp := map[string]any{
		"wns":       v.WNS,
		"tns":       v.TNS,
		"endpoints": len(slacks),
		"epoch":     v.Epoch,
	}
	if scn != "" {
		resp["scenario"] = scn
	}
	if v.Corners != nil {
		resp["corners"] = v.Corners
	}
	resp["violations"] = core.Violations(slacks)
	if n := intQuery(r, "worst", 0); n > 0 {
		idx := make([]int, len(slacks))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return slacks[idx[a]] < slacks[idx[b]] })
		if n > len(idx) {
			n = len(idx)
		}
		worst := make([]EndpointSlack, 0, n)
		ref := s.mgr.Ref()
		for _, i := range idx[:n] {
			es := EndpointSlack{Endpoint: i, Slack: jsonSlack(slacks[i]), Base: jsonSlack(slacks[i])}
			if ref != nil {
				es.Pin = ref.D.Pins[v.Pins[i]].Name
			}
			worst = append(worst, es)
		}
		resp["worst"] = worst
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGradients(w http.ResponseWriter, r *http.Request) {
	top := intQuery(r, "top", 32)
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":  s.mgr.Epoch(),
		"stages": s.mgr.Gradients(top),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Create()
	if err != nil {
		// A full admission cap is load, not breakage: answer 503 with a
		// Retry-After hint so pool clients back off and retry instead of
		// treating the replica as broken, and count it separately.
		if errors.Is(err, ErrTooManySessions) {
			s.met.admissionRejects.Inc()
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": sess.ID, "epoch": s.mgr.Epoch()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, sess *Session) {
	res, err := sess.Result()
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": sess.ID, "ecos": sess.ECOCount(), "view": res})
}

// handleSessionSlacks reports the session's full slack view. Default is the
// nominal lane; ?scenario=<name|merged> selects a corner, priced through the
// session's uncommitted deltas.
func (s *Server) handleSessionSlacks(w http.ResponseWriter, r *http.Request, sess *Session) {
	scn := r.URL.Query().Get("scenario")
	bufp := slackBufPool.Get().(*[]float64)
	defer func() { slackBufPool.Put(bufp) }()
	slacks, err := sess.ScenarioSlacksInto(scn, (*bufp)[:0])
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	*bufp = slacks[:0]
	wns, tns, viol := 0.0, 0.0, 0
	for i, sl := range slacks {
		slacks[i] = jsonSlack(sl)
		if sl < 0 {
			viol++
			tns += sl
			if sl < wns {
				wns = sl
			}
		}
	}
	resp := map[string]any{
		"id":         sess.ID,
		"wns":        wns,
		"tns":        tns,
		"violations": viol,
		"slacks":     slacks,
	}
	if scn != "" {
		resp["scenario"] = scn
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot persists the committed base state to the snapshot cache so
// the next daemon start warm-boots into it. 501 when the daemon runs without
// -snapshot-dir.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	path, size, key, err := s.mgr.SaveSnapshot()
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	s.log.Info("snapshot saved", "path", path, "bytes", size, "epoch", s.mgr.Epoch())
	writeJSON(w, http.StatusOK, map[string]any{
		"path":  path,
		"bytes": size,
		"key":   key,
		"epoch": s.mgr.Epoch(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, sess *Session) {
	sess.Close()
	writeJSON(w, http.StatusOK, map[string]string{"closed": sess.ID})
}

// maxBodyBytes caps the /eco and /topo request bodies. The largest batch the
// stack sends (a 512-arc what-if) is about 50 KB; this leaves two orders of
// headroom while keeping one client from making the daemon buffer gigabytes.
const maxBodyBytes = 8 << 20

// decodeBody decodes a size-capped JSON request body into v, answering 413
// for an oversized body and 400 for a malformed one. It reports whether the
// handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, err)
	return false
}

func (s *Server) handleECO(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req ECORequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Resizes) == 0 && len(req.Arcs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("server: empty ECO batch"))
		return
	}
	res, err := sess.ApplyECO(req)
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleTopo applies one structural edit batch to the session (buffer
// insert/remove, repower, move, raw annotate). 409 when the session holds
// uncommitted annotation ECOs or the base moved under its structural edits.
func (s *Server) handleTopo(w http.ResponseWriter, r *http.Request, sess *Session) {
	var req TopoRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("server: empty topo batch"))
		return
	}
	res, err := sess.ApplyTopo(req)
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request, sess *Session) {
	res, err := sess.Commit()
	if err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request, sess *Session) {
	if err := sess.Rollback(); err != nil {
		writeErr(w, errCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rolled_back": sess.ID, "epoch": s.mgr.Epoch()})
}

func intQuery(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	var n int
	for _, c := range v {
		if c < '0' || c > '9' {
			return def
		}
		n = n*10 + int(c-'0')
	}
	return n
}
