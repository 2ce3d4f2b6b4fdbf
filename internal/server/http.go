package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"insta/internal/core"
	"insta/internal/obs/shell"
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
	sh    *shell.Shell // nil until Observe: the request shell is off
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
	for _, scn := range mgr.Scenarios() {
		s.info.Corners = append(s.info.Corners, scn.Name)
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
// by size (MaxBodyBytes), not time: a long what-if is legitimate.
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

// Observe puts the work routes inside request shell sh — trace identity,
// flight recorder, SLO samples, with the SLO gauges (insta_slo_*) on /metrics
// and the slo/flight_recorder sections on /healthz — and mounts the debug
// surface: the shell's /debug/flightrecorder and /debug/pprof/, plus, when the
// shell has a tracer, GET /debug/trace?dur=SECONDS — a windowed capture that
// enables the tracer for the requested duration (default 1s, capped at 60s)
// and streams the spans recorded in that window as Chrome trace_event JSON.
// Call once, before serving; a server that is never told to observe exposes
// none of it.
func (s *Server) Observe(sh *shell.Shell) {
	s.sh = sh
	sh.SLO.RegisterMetrics(s.met.reg, "insta")
	sh.Mount(s.mux)
	tr := sh.Tracer
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
				WriteError(w, http.StatusBadRequest, fmt.Errorf("server: bad dur %q", v))
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

// route runs a handler under a stable route label (patterns with wildcards
// would explode the label space): inside the request shell, except for the
// /healthz and /metrics probes, whose pollers would otherwise fill the
// recorder window; then the daemon's own bookkeeping — the request counters
// and latency histograms, and the request log line, successes at Debug so
// production log volume is opt-in via the level, error statuses at Warn. The
// span name is precomputed so a request with the shell off allocates nothing
// beyond its handle.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	work := name != "healthz" && name != "metrics"
	span := "serve-" + name
	return func(w http.ResponseWriter, r *http.Request) {
		var sh *shell.Shell
		if work {
			sh = s.sh
			s.met.inflight.Inc()
		}
		rq := sh.Begin(span, w, r)
		h(rq, r)
		if work {
			s.met.inflight.Dec()
			rq.Epoch, rq.TopoGen = s.mgr.Epoch(), s.mgr.TopoGen()
		}
		code, d := rq.End(name)
		s.met.observe(name, code, d)
		level := slog.LevelDebug
		if code >= 400 {
			level = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", name),
			slog.Int("status", code),
			slog.Duration("duration", d),
		)
	}
}

// withSession resolves {id} or answers 404.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess := s.mgr.Get(r.PathValue("id"))
		if sess == nil {
			WriteError(w, http.StatusNotFound, errors.New("server: no such session"))
			return
		}
		h(w, r, sess)
	}
}

// respEnc is one pooled response encoder: encoding/json writing into a
// buffer that keeps its grown capacity across requests.
type respEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
	out []byte // a stitched session slack body (writeSessionSlacks)
}

var encPool = sync.Pool{New: func() any {
	e := new(respEnc)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// WriteJSON answers with status code and v as one line of compact JSON — the
// one response writer of the daemon and of the router in front of it. The
// body is encoded before the status line is sent; on an encoding error (a
// non-finite float) the status still goes out, with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	e := encPool.Get().(*respEnc)
	e.buf.Reset()
	var body []byte
	if err := e.enc.Encode(v); err == nil {
		body = e.buf.Bytes()
	}
	writeBody(w, code, body)
	encPool.Put(e)
}

// writeBody sends the status line and a JSON body; a nil body is the one that
// failed to encode.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if body != nil {
		_, _ = w.Write(body)
	}
}

// WriteError answers with status code and the body {"error": err's text}.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorBody{err.Error()})
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
	live, max := s.mgr.NumSessions(), s.mgr.MaxSessions()
	resp := Healthz{
		Boot:     s.mgr.Boot(),
		Design:   s.info,
		Epoch:    s.mgr.Epoch(),
		Flight:   s.sh.FlightSummary(),
		Load:     Load{Headroom: max - live, Inflight: int(s.Inflight()), LiveSessions: live, MaxSessions: max},
		Sessions: live,
		SLO:      s.sh.Burn(),
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
	}
	if lat := s.met.latency; lat.Count() > 0 {
		resp.Latency = &latencyQuantiles{P50: lat.Quantile(0.50), P95: lat.Quantile(0.95), P99: lat.Quantile(0.99)}
	}
	WriteJSON(w, http.StatusOK, &resp)
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
		WriteError(w, errCode(err), err)
		return
	}
	slacks := v.Slacks
	*bufp = slacks[:0]
	resp := baseSlacks{
		Corners:    v.Corners,
		Endpoints:  len(slacks),
		Epoch:      v.Epoch,
		Scenario:   scn,
		TNS:        v.TNS,
		Violations: core.Violations(slacks),
		WNS:        v.WNS,
	}
	if n := min(intQuery(r, "worst", 0), len(slacks)); n > 0 {
		idx := make([]int, len(slacks))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return slacks[idx[a]] < slacks[idx[b]] })
		resp.Worst = make([]EndpointSlack, 0, n)
		ref := s.mgr.Ref()
		for _, i := range idx[:n] {
			es := EndpointSlack{Endpoint: i, Slack: jsonSlack(slacks[i]), Base: jsonSlack(slacks[i])}
			if ref != nil {
				es.Pin = ref.D.Pins[v.Pins[i]].Name
			}
			resp.Worst = append(resp.Worst, es)
		}
	}
	WriteJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleGradients(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, gradients{Epoch: s.mgr.Epoch(), Stages: s.mgr.Gradients(intQuery(r, "top", 32))})
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
		WriteError(w, errCode(err), err)
		return
	}
	WriteJSON(w, http.StatusCreated, Created{Epoch: s.mgr.Epoch(), ID: sess.ID})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, sess *Session) {
	res, err := sess.Result()
	if err != nil {
		WriteError(w, errCode(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, sessionView{ECOs: sess.ECOCount(), ID: sess.ID, View: res})
}

// handleSessionSlacks reports the session's full slack view. Default is the
// nominal lane; ?scenario=<name|merged> selects a corner, priced through the
// session's uncommitted deltas.
func (s *Server) handleSessionSlacks(w http.ResponseWriter, r *http.Request, sess *Session) {
	scn := r.URL.Query().Get("scenario")
	bufp := slackBufPool.Get().(*[]float64)
	defer func() { slackBufPool.Put(bufp) }()
	slacks, lane, err := sess.scenarioSlacksInto(scn, (*bufp)[:0])
	if err != nil {
		WriteError(w, errCode(err), err)
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
	s.writeSessionSlacks(w, &sessionSlacks{ID: sess.ID, Scenario: scn, TNS: tns, Violations: viol, WNS: wns}, lane, slacks)
}

// handleSnapshot persists the committed base state to the snapshot cache so
// the next daemon start warm-boots into it. 501 when the daemon runs without
// -snapshot-dir.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	path, size, key, err := s.mgr.SaveSnapshot()
	if err != nil {
		WriteError(w, errCode(err), err)
		return
	}
	s.log.Info("snapshot saved", "path", path, "bytes", size, "epoch", s.mgr.Epoch())
	WriteJSON(w, http.StatusOK, snapshotSaved{Bytes: size, Epoch: s.mgr.Epoch(), Key: key, Path: path})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, sess *Session) {
	sess.Close()
	WriteJSON(w, http.StatusOK, closed{sess.ID})
}

// MaxBodyBytes caps the /eco and /topo request bodies, here and at the router
// in front (which refuses a larger body itself rather than buffer what the
// daemon is going to refuse). The largest batch the stack sends (a 512-arc
// what-if) is about 50 KB; this leaves two orders of headroom while keeping
// one client from making either process buffer gigabytes.
const MaxBodyBytes = 8 << 20

// reqBodyPool recycles the buffers request bodies are read into.
var reqBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads a size-capped request body into a pooled buffer and
// decodes its JSON into v, answering 413 for an oversized body and 400 for a
// malformed one. It reports whether the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := reqBodyPool.Get().(*bytes.Buffer)
	defer reqBodyPool.Put(buf)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err == nil {
		err = unmarshalFirst(buf.Bytes(), v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteError(w, code, err)
	return false
}

// unmarshalFirst decodes the first JSON value of data into v and answers what
// json.Decoder.Decode answered while bodies were streamed through one, which
// clients and the wire goldens have seen: whatever follows the first value is
// ignored, and input that ends early is io.EOF or io.ErrUnexpectedEOF. Those
// are the inputs json.Unmarshal calls a syntax error — before it has touched
// v — so for them, and only them, a decoder is built to answer.
func unmarshalFirst(data []byte, v any) error {
	err := json.Unmarshal(data, v)
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return json.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	return err
}

// ecoReqPool recycles ECO requests with the capacity their batches grew:
// nothing keeps one past ApplyECO, which stores resolved copies.
var ecoReqPool = sync.Pool{New: func() any { return new(ECORequest) }}

// maxPooledBatch is the largest batch capacity a pooled ECO request keeps. It
// is cleared to capacity before every reuse, which has to stay nothing next
// to a one-arc preview; the largest batch the stack sends is 512 arcs.
const maxPooledBatch = 4096

// putECORequest returns req to the pool, zeroed to capacity: encoding/json
// decodes into the elements a slice already holds, so whatever one body left
// behind would fill in the fields the next leaves out.
func putECORequest(req *ECORequest) {
	if cap(req.Arcs) > maxPooledBatch || cap(req.Resizes) > maxPooledBatch {
		return
	}
	clear(req.Arcs[:cap(req.Arcs)])
	clear(req.Resizes[:cap(req.Resizes)])
	req.Arcs, req.Resizes = req.Arcs[:0], req.Resizes[:0]
	ecoReqPool.Put(req)
}

func (s *Server) handleECO(w http.ResponseWriter, r *http.Request, sess *Session) {
	req := ecoReqPool.Get().(*ECORequest)
	defer putECORequest(req)
	if !decodeBody(w, r, req) {
		return
	}
	if len(req.Resizes) == 0 && len(req.Arcs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("server: empty ECO batch"))
		return
	}
	res, err := sess.ApplyECO(*req)
	if err != nil {
		WriteError(w, errCode(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
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
		WriteError(w, http.StatusBadRequest, errors.New("server: empty topo batch"))
		return
	}
	res, err := sess.ApplyTopo(req)
	if err != nil {
		WriteError(w, errCode(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request, sess *Session) {
	res, err := sess.Commit()
	if err != nil {
		WriteError(w, errCode(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request, sess *Session) {
	if err := sess.Rollback(); err != nil {
		WriteError(w, errCode(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, rolledBack{Epoch: s.mgr.Epoch(), RolledBack: sess.ID})
}

// intQuery reads a non-negative decimal query parameter; anything else —
// absent, signed, not a number, too large for an int — is def.
func intQuery(r *http.Request, key string, def int) int {
	n, err := strconv.ParseUint(r.URL.Query().Get(key), 10, 31)
	if err != nil {
		return def
	}
	return int(n)
}
