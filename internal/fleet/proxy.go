package fleet

// The router's HTTP surface: the same endpoint shapes as one insta-served
// daemon, so a client (benchmark/client.go drives both with one loop) cannot
// tell a fleet from a single replica apart from the session IDs. Session-scoped routes resolve the home
// replica from the ID's embedded key, pass admission, and proxy with bounded
// retry; base reads go through the hedger (hedge.go); /healthz and /metrics
// are answered by the router itself.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

var (
	bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	copyPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}
)

func (p *Pool) buildMux() {
	mux := http.NewServeMux()
	p.mux = mux
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /debug/fleet", p.handleDebugFleet)
	mux.HandleFunc("GET /debug/trace/{trace}", p.handleStitchedTrace)
	p.sh.Mount(mux) // /debug/flightrecorder, /debug/pprof/
	mux.HandleFunc("GET /slacks", p.work("slacks", p.gate(p.handleRead)))
	mux.HandleFunc("GET /gradients", p.work("gradients", p.gate(p.handleRead)))
	mux.HandleFunc("POST /session", p.work("session-create", p.gate(p.handleCreate)))
	mux.HandleFunc("GET /session/{id}", p.work("session-get", p.gate(p.proxySession(""))))
	mux.HandleFunc("DELETE /session/{id}", p.work("session-delete", p.gate(p.proxySession(""))))
	mux.HandleFunc("GET /session/{id}/slacks", p.work("session-slacks", p.gate(p.proxySession("/slacks"))))
	mux.HandleFunc("POST /session/{id}/eco", p.work("eco", p.gate(p.proxySession("/eco"))))
	mux.HandleFunc("POST /session/{id}/topo", p.work("topo", p.gate(p.proxySession("/topo"))))
	mux.HandleFunc("POST /session/{id}/commit", p.work("commit", p.gate(p.proxySession("/commit"))))
	mux.HandleFunc("POST /session/{id}/rollback", p.work("rollback", p.gate(p.proxySession("/rollback"))))
	mux.HandleFunc("POST /admin/swap", p.work("swap", p.handleSwap))
}

// Handler returns the router's root handler.
func (p *Pool) Handler() http.Handler { return p.mux }

// workHandler is a work route's handler: rq is the response writer and the
// request's handle in the shell, where the handler leaves the shard key, the
// replica it placed the request on and the admission wait.
type workHandler func(rq *shell.Req, r *http.Request)

// work runs a work route inside the request shell, with the drain gate inside
// it so refusals are recorded too. The probe routes (/healthz, /metrics) stay
// outside: pollers would otherwise fill the recorder window.
func (p *Pool) work(route string, h workHandler) http.HandlerFunc {
	span := "route-" + route
	return func(w http.ResponseWriter, r *http.Request) {
		rq := p.sh.Begin(span, w, r)
		h(rq, r)
		rq.End(route)
	}
}

// gate refuses new work while the router itself is draining (SIGTERM).
func (p *Pool) gate(h workHandler) workHandler {
	return func(rq *shell.Req, r *http.Request) {
		if p.draining.Load() {
			rq.Header().Set("Retry-After", "1")
			server.WriteError(rq, http.StatusServiceUnavailable, errors.New("fleet: router draining"))
			return
		}
		h(rq, r)
	}
}

// handleCreate places a new session by key redraw: mint a key, hash it to its
// home replica, and — if that replica is unready, draining, session-full or
// over its in-flight cap — mint a *new* key and try again, up to
// createProbesEach times per replica. Redrawing (rather than walking the
// ring) keeps hash(key)→replica exact forever; see ring.go.
func (p *Pool) handleCreate(w *shell.Req, r *http.Request) {
	var lastStatus int
	var lastBody []byte
	var lastErr error
	for probe := 0; probe < createProbesEach*len(p.replicas); probe++ {
		key := p.nextKey()
		rep := p.replicas[p.ring.owner(key)]
		if !rep.Ready() || rep.sessionFull() {
			p.met.createRedraws.Inc()
			continue
		}
		release, err := p.admit(r.Context(), w, rep)
		if err != nil {
			if errors.Is(err, errAdmission) {
				// This replica's lane is saturated; a redrawn key may land on
				// an idle one.
				p.met.createRedraws.Inc()
				lastErr = err
				continue
			}
			server.WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		status, body, err := p.doBuffered(r.Context(), w, rep, http.MethodPost, "/session")
		release()
		if err != nil {
			rep.errors.Add(1)
			p.met.errors.With(rep.idStr).Inc()
			p.met.createRedraws.Inc()
			lastErr = err
			continue
		}
		if status == http.StatusCreated {
			var cr server.Created
			if err := json.Unmarshal(body, &cr); err != nil || cr.ID == "" {
				server.WriteError(w, http.StatusBadGateway, errors.New("fleet: malformed create response"))
				return
			}
			p.met.sessionsCreated.Inc()
			w.Shard, w.Replica = key, int32(rep.ID)
			server.WriteJSON(w, http.StatusCreated, created{Epoch: cr.Epoch, ID: key + "." + cr.ID, Replica: rep.ID})
			return
		}
		// Replica-side refusal (admission cap raced the health view, etc.):
		// remember it and redraw.
		lastStatus, lastBody = status, body
		p.met.createRedraws.Inc()
	}
	if lastStatus != 0 {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(lastStatus)
		_, _ = w.Write(lastBody)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no ready replica for new session")
	}
	w.Header().Set("Retry-After", "1")
	server.WriteError(w, http.StatusServiceUnavailable, lastErr)
}

// created is the router's POST /session body: the daemon's, under the fleet
// session id, plus the replica the session lives on. Fields in wire order.
type created struct {
	Epoch   uint64 `json:"epoch"`
	ID      string `json:"id"`
	Replica int    `json:"replica"`
}

// proxySession routes a session-scoped request to the session's home replica:
// split the fleet ID, hash the key, admit, forward with the path rewritten to
// the replica-local ID. Existing sessions route to their owner even when it
// is unready or draining — the state lives nowhere else.
func (p *Pool) proxySession(tail string) workHandler {
	return func(w *shell.Req, r *http.Request) {
		key, local, ok := splitFID(r.PathValue("id"))
		if !ok {
			server.WriteError(w, http.StatusNotFound, errors.New("fleet: malformed session id (want <key>.<local>)"))
			return
		}
		rep := p.replicas[p.ring.owner(key)]
		w.Shard, w.Replica = key, int32(rep.ID)
		release, err := p.admit(r.Context(), w, rep)
		if err != nil {
			w.Header().Set("Retry-After", "1")
			server.WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		defer release()
		p.forward(w, r, rep, "/session/"+local+tail)
	}
}

// handleRead serves the idempotent base reads through the hedger.
func (p *Pool) handleRead(w *shell.Req, r *http.Request) {
	primary := p.pickRead(nil)
	if primary == nil {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, errors.New("fleet: no ready replicas"))
		return
	}
	p.hedgedRead(w, r, primary)
}

// replayBody is a request body buffered once in a bodyPool buffer so that
// every attempt of forward can send it. The transport may go on reading an
// attempt's body after its round trip has returned — a replica that answers
// before it has drained the request, a 413 say — and closes the body when it
// is done with it, so each attempt's body holds a reference, forward holds
// one while it may still start attempts, and the buffer goes back to the pool
// with the last of them.
type replayBody struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

// open returns one more reader over the whole body.
func (b *replayBody) open() io.ReadCloser {
	b.refs.Add(1)
	a := &attemptBody{body: b}
	a.Reset(b.buf.Bytes())
	return a
}

func (b *replayBody) release() {
	if b.refs.Add(-1) == 0 {
		bodyPool.Put(b.buf)
	}
}

// attemptBody is one attempt's view of a replayBody; its first Close gives
// the reference back.
type attemptBody struct {
	bytes.Reader
	body   *replayBody
	closed atomic.Bool
}

func (a *attemptBody) Close() error {
	if a.closed.CompareAndSwap(false, true) {
		a.body.release()
	}
	return nil
}

// forward proxies one request to rep with bounded retry: up to maxRetries
// extra attempts, backoff doubling from retryBackoff, and a method-aware
// retry predicate (see retriable). The request body is buffered once so
// retries can replay it — up to the daemon's own cap: a larger one is refused
// here rather than buffered for the daemon to refuse.
func (p *Pool) forward(w *shell.Req, r *http.Request, rep *Replica, path string) {
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var body *replayBody
	if r.Body != nil && r.ContentLength != 0 {
		buf := bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		body = &replayBody{buf: buf}
		body.refs.Store(1)
		defer body.release()
		if _, err := io.Copy(buf, io.LimitReader(r.Body, server.MaxBodyBytes+1)); err != nil {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if buf.Len() > server.MaxBodyBytes {
			server.WriteError(w, http.StatusRequestEntityTooLarge, errors.New("fleet: request body too large"))
			return
		}
	}
	t0 := time.Now()
	var lastErr error
	for a := 0; a <= maxRetries; a++ {
		if a > 0 {
			backoff := retryBackoff << (a - 1)
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				server.WriteError(w, http.StatusServiceUnavailable, r.Context().Err())
				return
			}
			p.met.retries.Inc()
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.URL()+path, nil)
		if err != nil {
			server.WriteError(w, http.StatusBadGateway, err)
			return
		}
		if body != nil && body.buf.Len() > 0 {
			// What NewRequest sets up for a *bytes.Reader, with a Close
			// that is seen. GetBody serves the transport's own replays.
			req.Body, req.ContentLength = body.open(), int64(body.buf.Len())
			req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		asp := w.Span().ChildArg("proxy-attempt", "attempt", int64(a))
		req.Header.Set("Traceparent", w.Downstream(asp))
		p.met.requests.With(rep.idStr).Inc()
		rep.requests.Add(1)
		resp, err := p.client.Do(req)
		asp.End()
		if err == nil {
			copyResponse(w, resp)
			p.met.latency.Observe(time.Since(t0).Seconds())
			return
		}
		rep.errors.Add(1)
		p.met.errors.With(rep.idStr).Inc()
		lastErr = err
		if r.Context().Err() != nil || !retriable(r.Method, err) {
			break
		}
	}
	server.WriteError(w, http.StatusBadGateway, lastErr)
}

// doBuffered performs one body-less request and returns the status and fully
// read body — the create path's helper, where the response is small and must
// be parsed.
func (p *Pool) doBuffered(ctx context.Context, rq *shell.Req, rep *Replica, method, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.URL()+path, nil)
	if err != nil {
		return 0, nil, err
	}
	asp := rq.Span().ChildArg("create-attempt", "replica", int64(rep.ID))
	req.Header.Set("Traceparent", rq.Downstream(asp))
	p.met.requests.With(rep.idStr).Inc()
	rep.requests.Add(1)
	resp, err := p.client.Do(req)
	asp.End()
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// retriable decides whether a transport error is safe to retry. Connection
// errors on GETs always are (the read is idempotent). Everything else —
// POST /eco, /commit, DELETE — retries only when the error proves the request
// never left the router (a dial failure): a mid-flight connection loss on a
// mutation may have executed on the replica, and replaying it could apply an
// ECO twice.
func retriable(method string, err error) bool {
	var ue *url.Error
	if !errors.As(err, &ue) {
		return false
	}
	if ue.Timeout() {
		return false
	}
	var oe *net.OpError
	isOp := errors.As(err, &oe)
	conn := isOp ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
	if !conn {
		return false
	}
	if method == http.MethodGet {
		return true
	}
	return isOp && oe.Op == "dial"
}

// copyResponse streams the replica's response through, preserving the status
// and the headers that matter to clients.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Content-Length", "Retry-After", "Content-Disposition"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	bp := copyPool.Get().(*[]byte)
	_, _ = io.CopyBuffer(w, resp.Body, *bp)
	copyPool.Put(bp)
}

// replicaView is one replica's row in the router's /healthz.
type replicaView struct {
	ID           int    `json:"id"`
	URL          string `json:"url"`
	State        string `json:"state"`
	LiveSessions int    `json:"live_sessions"`
	MaxSessions  int    `json:"max_sessions"`
	Headroom     int    `json:"headroom"`
	Inflight     int64  `json:"inflight"` // router-side admitted requests
	Epoch        uint64 `json:"epoch"`
	Err          string `json:"err,omitempty"`
}

// healthz is the router's GET /healthz body, fields in wire order.
type healthz struct {
	Draining     bool                 `json:"draining"`
	Flight       *shell.FlightSummary `json:"flight_recorder,omitempty"`
	HedgeDelayMS float64              `json:"hedge_delay_ms"`
	Ready        int                  `json:"ready"`
	Replicas     []replicaView        `json:"replicas"`
	SLO          []obs.BurnRate       `json:"slo"`
	Status       string               `json:"status"`
	UptimeS      float64              `json:"uptime_s"`
}

// handleHealthz aggregates the fleet's state: per-replica condition and load,
// plus the router's own view (ready count, hedge delay, drain bit). 503 when
// no replica can take work, so an upstream balancer can see "down".
func (p *Pool) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthz{
		Draining:     p.draining.Load(),
		Flight:       p.sh.FlightSummary(),
		HedgeDelayMS: float64(p.hedgeDelay().Nanoseconds()) / 1e6,
		Replicas:     make([]replicaView, 0, len(p.replicas)),
		SLO:          p.sh.Burn(),
		Status:       "ok",
		UptimeS:      time.Since(p.start).Seconds(),
	}
	for _, rep := range p.replicas {
		h := rep.Health()
		if rep.Ready() {
			resp.Ready++
		}
		resp.Replicas = append(resp.Replicas, replicaView{
			ID: rep.ID, URL: rep.URL(), State: rep.state(),
			LiveSessions: h.LiveSessions, MaxSessions: h.MaxSessions,
			Headroom: h.Headroom, Inflight: rep.inflight.Load(),
			Epoch: h.Epoch, Err: h.Err,
		})
	}
	code := http.StatusOK
	switch {
	case resp.Ready == 0:
		resp.Status, code = "down", http.StatusServiceUnavailable
	case resp.Ready < len(p.replicas):
		resp.Status = "degraded"
	}
	server.WriteJSON(w, code, &resp)
}

func (p *Pool) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p.met.reg.WritePrometheus(w)
}

// handleSwap runs a rolling snapshot-swap across the fleet (swap.go). 501
// when the pool was built without a swap function.
func (p *Pool) handleSwap(w *shell.Req, r *http.Request) {
	rep, err := p.RollingSwap(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrNoSwap) {
			code = http.StatusNotImplemented
		}
		server.WriteError(w, code, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, rep)
}
