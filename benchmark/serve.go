package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"insta/internal/batch"
	"insta/internal/core"
	"insta/internal/fleet"
	"insta/internal/server"
	"insta/internal/snap"
)

// sessionOps is how many ops a session lives for before the client closes it
// and opens the next. There is one closed-loop client, and every engine runs
// one worker: the benchmark never has more than one thread of the program
// busy at a time, so it measures the same thing whether the host gives this
// VM its two cores or, as it does for minutes at a time, one core's worth.
const sessionOps = 10

// arcBudgets is the heavy-tailed ECO size mix: mostly tiny previews and one
// 512-arc body in sixteen, whose cone re-propagation is the latency tail.
var arcBudgets = [16]int{1, 2, 1, 4, 2, 8, 1, 2, 4, 1, 16, 2, 1, 4, 2, largeArcs}

const (
	smallArcs = 2   // the ladder's "small" body: the mix's median ECO size, the op behind op_p50_ms
	largeArcs = 512 // the ladder's "large" body
)

// serveOpts configures every daemon's engines, alone or behind the router.
var serveOpts = core.Options{TopK: 8, Workers: 1}

type opKind uint8

const (
	opECO      opKind = iota // POST /session/{id}/eco
	opRead                   // GET /session/{id}/slacks
	opReadScn                // GET /session/{id}/slacks?scenario=<first corner>
	opBaseRead               // GET /slacks
)

var opNames = [...]string{"eco", "read", "read_scn", "base_read"}

type opSpec struct {
	kind opKind
	body int // ECO body index
}

// expect is what one schedule position's response must contain, computed
// through the in-process Session API before the daemon under test exists.
type expect struct {
	head    []byte // ECO: `{"wns":W,"tns":T,` prefix; base read: `"tns":T,"violations":V,"wns":W}` suffix
	changed int    // ECO: entries in "changed"
	crc     uint32 // session read: CRC of the "slacks" array text
}

// traffic is the request workloads' schedule. Its sessions are pinned: which
// arcs every ECO body touches, the ECO sizes, what each session holds and in
// which order come from pinnedTraffic, because cone sizes differ so much from
// arc to arc, and an op's cost so much with what its session already holds,
// that seeding either moved the latency figures by 10-20 % from seed to seed.
// --seed decides the order of the sessions in the client's repeating cycle.
// Every ECO position of the cycle has a body of its own, so the medians
// average over more than a hundred cones.
type traffic struct {
	reqs   []server.ECORequest
	bodies [][]byte
	cycle  []opSpec
	exp    []expect
}

const pinnedTraffic = 20250926

// mixes are op-kind counts per sessionOps ops: ECO, session read, base read.
var mixes = map[string][3]int{
	"read_mix":  {2, 5, 3},
	"fleet_mix": {8, 1, 1},
}

// addBody appends an ECO body that slows n arcs, spread evenly over the
// design from a random offset, by 2 %.
func (t *traffic) addBody(rng *rand.Rand, n int, st *core.State) (int, error) {
	nArcs := len(st.ArcKind)
	n = min(n, nArcs)
	var req server.ECORequest
	for j, off := 0, rng.Intn(nArcs); j < n; j++ {
		arc := int32((off + j*(nArcs/n)) % nArcs)
		eco := server.ArcECO{Arc: arc}
		eco.Rise.Mean, eco.Rise.Std = st.ArcMean[0][arc]*1.02, st.ArcStd[0][arc]
		eco.Fall.Mean, eco.Fall.Std = st.ArcMean[1][arc]*1.02, st.ArcStd[1][arc]
		req.Arcs = append(req.Arcs, eco)
	}
	body, err := json.Marshal(req)
	t.reqs, t.bodies = append(t.reqs, req), append(t.bodies, body)
	return len(t.bodies) - 1, err
}

func genTraffic(seed int64, cycleECOs int, mix [3]int, st *core.State) (*traffic, error) {
	pinned := rand.New(rand.NewSource(pinnedTraffic))
	order := rand.New(rand.NewSource(seed))
	t := &traffic{}
	// A session holds the mix's ops; its ECO sizes are drawn from whole
	// permutations of arcBudgets, so every cycle carries exactly the same
	// share of small and large work. Once a session holds a large ECO every
	// later response of that session carries its long changed list, so the
	// large body's slot is pinned too, drawn without replacement from 1..8.
	var sessions [][]opSpec
	var deck, slots []int
	reads := 0
	for ecos := 0; ecos < cycleECOs; ecos += mix[0] {
		var sess []opSpec
		largeBody := -1
		for k := 0; k < mix[0]; k++ {
			if len(deck) == 0 {
				deck = pinned.Perm(len(arcBudgets))
			}
			n := arcBudgets[deck[0]]
			deck = deck[1:]
			body, err := t.addBody(pinned, n, st)
			if err != nil {
				return nil, err
			}
			sess = append(sess, opSpec{kind: opECO, body: body})
			if n == largeArcs {
				largeBody = body
			}
		}
		for k := 0; k < mix[1]; k++ {
			kind := opRead
			if reads%2 == 1 {
				kind = opReadScn
			}
			reads++
			sess = append(sess, opSpec{kind: kind})
		}
		for k := 0; k < mix[2]; k++ {
			sess = append(sess, opSpec{kind: opBaseRead})
		}
		pinned.Shuffle(len(sess), func(i, j int) { sess[i], sess[j] = sess[j], sess[i] })
		if largeBody >= 0 {
			if len(slots) == 0 {
				slots = pinned.Perm(sessionOps - 2)
			}
			i := slices.Index(sess, opSpec{kind: opECO, body: largeBody})
			j := 1 + slots[0]
			slots = slots[1:]
			sess[i], sess[j] = sess[j], sess[i]
		}
		sessions = append(sessions, sess)
	}
	order.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
	for _, sess := range sessions {
		t.cycle = append(t.cycle, sess...)
	}
	return t, nil
}

// jsonFloat formats v the way the wire carries it (encoding/json), with the
// server's clamp of untimed endpoints.
func jsonFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 0) {
		v = math.Copysign(1e30, v)
	}
	out, _ := json.Marshal(v) // a finite float64 always marshals
	return append(b, out...)
}

func violations(slacks []float64) (n int) {
	for _, sl := range slacks {
		if sl < 0 {
			n++
		}
	}
	return n
}

func slacksCRC(slacks []float64) uint32 {
	var b []byte
	for i, sl := range slacks {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonFloat(b, sl)
	}
	return crc32.ChecksumIEEE(b)
}

// oracle replays the client's schedule through the in-process Session API
// of a manager of its own and records what every response must say.
func (t *traffic) oracle(st *core.State) error {
	e, err := core.NewEngineFromState(st, serveOpts)
	if err != nil {
		return err
	}
	defer e.Close()
	be, err := batch.NewFromState(st, scenarios8[:3], serveOpts)
	if err != nil {
		return err
	}
	defer be.Close()
	mgr := server.NewManager(e, nil, server.Options{Batch: be})
	defer mgr.CloseAll()

	baseTail := jsonFloat([]byte(`"tns":`), mgr.BaseTNS())
	baseTail = append(baseTail, fmt.Sprintf(`,"violations":%d,"wns":`, violations(mgr.BaseSlacks()))...)
	baseTail = append(jsonFloat(baseTail, mgr.BaseWNS()), "}\n"...)

	var slacks []float64
	var sess *server.Session
	t.exp = make([]expect, len(t.cycle))
	for pos, op := range t.cycle {
		if pos%sessionOps == 0 {
			if sess != nil {
				sess.Close()
			}
			if sess, err = mgr.Create(); err != nil {
				return err
			}
		}
		x := &t.exp[pos]
		switch op.kind {
		case opECO:
			res, err := sess.ApplyECO(t.reqs[op.body])
			if err != nil {
				return err
			}
			x.head = append(jsonFloat([]byte(`{"wns":`), res.WNS), `,"tns":`...)
			x.head = append(jsonFloat(x.head, res.TNS), ',')
			x.changed = len(res.Changed)
		case opRead, opReadScn:
			if op.kind == opRead {
				slacks, err = sess.SlacksInto(slacks[:0])
			} else {
				slacks, err = sess.ScenarioSlacksInto(scenarios8[0].Name, slacks[:0])
			}
			if err != nil {
				return err
			}
			x.crc = slacksCRC(slacks)
		case opBaseRead:
			x.head = baseTail
		}
	}
	sess.Close()
	return nil
}

// check reports whether a response says what the oracle computed.
func (x *expect) check(kind opKind, status int, resp []byte) bool {
	if status != http.StatusOK {
		return false
	}
	switch kind {
	case opECO:
		return bytes.HasPrefix(resp, x.head) && bytes.Count(resp, []byte(`"endpoint":`)) == x.changed
	case opBaseRead:
		return bytes.HasSuffix(resp, x.head)
	default:
		i := bytes.Index(resp, []byte(`"slacks":[`))
		if i < 0 {
			return false
		}
		arr := resp[i+len(`"slacks":[`):]
		j := bytes.IndexByte(arr, ']')
		return j >= 0 && crc32.ChecksumIEEE(arr[:j]) == x.crc
	}
}

// daemon is one in-process insta-served: engines over a loaded snapshot, a
// session manager and an HTTP listener on loopback.
type daemon struct {
	e    *core.Engine
	be   *batch.Engine
	mgr  *server.Manager
	http *listener
}

type listener struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(lis) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

func newDaemon(snp *snap.Snapshot) (*daemon, error) {
	e, err := snp.Engine(serveOpts)
	if err != nil {
		return nil, err
	}
	be, err := snp.Batch(scenarios8[:3], serveOpts)
	if err != nil {
		e.Close()
		return nil, err
	}
	d := &daemon{e: e, be: be}
	d.mgr = server.NewManager(e, nil, server.Options{Batch: be})
	if d.http, err = listen(server.New(d.mgr, snp.State.Design).Handler()); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	if d.http != nil {
		d.http.close()
	}
	d.mgr.CloseAll()
	d.be.Close()
	d.e.Close()
}

// stack is the program a request workload talks to: one daemon, or a fleet
// router in front of two.
type stack struct {
	daemons []*daemon
	pool    *fleet.Pool
	router  *listener
	addr    string // where clients connect
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// boot is the warm set-up a user of the service waits for: snapshot load →
// engines → manager → listener(s) (→ router → replicas ready) → first 200 on
// /healthz.
func boot(cache *snap.Cache, key string, fleetOf int) (*stack, error) {
	s, err := loadDaemons(cache, key, max(fleetOf, 1))
	if err == nil && fleetOf > 0 {
		err = s.front()
	}
	if err == nil {
		err = awaitHealthy(s.addr)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// loadDaemons loads the snapshot once and stands n daemons up over it. On an
// error the returned stack holds what was started, for the caller to close.
func loadDaemons(cache *snap.Cache, key string, n int) (*stack, error) {
	s := &stack{}
	snp, err := cache.Load(key)
	if err != nil {
		return s, err
	}
	if snp == nil {
		return s, fmt.Errorf("snapshot %s missing from the cache", key)
	}
	for i := 0; i < n; i++ {
		d, err := newDaemon(snp)
		if err != nil {
			return s, err
		}
		s.daemons, s.addr = append(s.daemons, d), d.http.addr
	}
	return s, nil
}

// front puts the fleet router before the daemons and waits for every replica
// to be ready.
func (s *stack) front() error {
	var urls []string
	for _, d := range s.daemons {
		urls = append(urls, "http://"+d.http.addr)
	}
	pool, err := fleet.New(urls, fleet.Options{
		GlobalInflight: 2,
		AdmissionWait:  30 * time.Second,
		DisableHedge:   true,
		Logger:         discardLog,
	})
	if err != nil {
		return err
	}
	s.pool = pool
	if s.router, err = listen(pool.Handler()); err != nil {
		return err
	}
	s.addr = s.router.addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ready := 0
		for _, r := range pool.Replicas() {
			if r.Ready() {
				ready++
			}
		}
		if ready == len(urls) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d replicas ready after 10s", ready, len(urls))
		}
	}
}

func awaitHealthy(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, _, err := c.roundTrip("GET", "/healthz", nil, "", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz on %s: status %d, err %v", addr, status, err)
	}
	return nil
}

func (s *stack) close() {
	if s.router != nil {
		s.router.close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	for _, d := range s.daemons {
		d.close()
	}
}

// served is what input preparation leaves for a request workload: the
// compiled design persisted in a snapshot cache, and the traffic with its
// expected answers.
type served struct {
	st    *core.State
	cache *snap.Cache
	key   string
	t     *traffic
}

// prepareServed builds the serving design cold, stores its snapshot under
// outDir and generates the seeded traffic. None of this is set-up time: a
// warm boot starts from the snapshot.
func prepareServed(cfg *config, mix [3]int) (*served, error) {
	b, err := cfg.serve.build()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "snapcache-")
	if err != nil {
		return nil, err
	}
	p := &served{st: b.st, key: "bench-" + cfg.serve.spec.Name}
	if p.cache, err = snap.NewCache(dir, 0); err == nil {
		_, _, err = p.cache.Store(p.key, b.st, scenarios8[:3])
	}
	if err == nil {
		p.t, err = genTraffic(cfg.seed, cfg.cycleECOs, mix, b.st)
	}
	if err == nil {
		err = p.t.oracle(b.st)
	}
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	return p, nil
}

func (p *served) cleanup() { _ = os.RemoveAll(p.cache.Dir()) }

// requestWorkload drives a stack with one closed-loop client.
type requestWorkload struct {
	prep   *served
	stack  *stack
	client *client
}

func newRequestWorkload(cfg *config, name string) (workload, time.Duration, error) {
	prep, err := prepareServed(cfg, mixes[name])
	if err != nil {
		return nil, 0, err
	}
	fleetOf := 0
	if name == "fleet_mix" {
		fleetOf = 2
	}
	w := &requestWorkload{prep: prep}
	var times []time.Duration
	for i := 0; i < cfg.boots; i++ {
		if w.stack != nil {
			w.stack.close()
		}
		runtime.GC() // every boot starts from the same heap, not the previous boot's garbage
		t0 := time.Now()
		if w.stack, err = boot(prep.cache, prep.key, fleetOf); err != nil {
			prep.cleanup()
			return nil, 0, err
		}
		times = append(times, time.Since(t0))
	}
	target := "server"
	if fleetOf > 0 {
		target = "fleet"
	}
	if w.client, err = newClient(w.stack.addr, target, prep.t); err != nil {
		w.close()
		return nil, 0, err
	}
	return w, quietDuration(times), nil
}

// slice is one pass of the client over its cycle: the same ECO bodies, reads
// and session churn in every slice.
func (w *requestWorkload) slice(tr *tracer) (lat []time.Duration, failed int) {
	c := w.client
	c.lat, c.failed = c.lat[:0], 0
	for range c.t.cycle {
		c.step(tr)
	}
	c.endSession()
	return c.lat, c.failed
}

// fullPropagateSpans turns kernel stats on for every daemon engine (a no-op
// once on) and returns how many pins their full forward kernels have
// processed since; request traffic must leave it at zero. Nil-safe, so the
// traced pass can call it for any workload.
func (w *requestWorkload) fullPropagateSpans() int64 {
	if w == nil {
		return 0
	}
	var n int64
	for _, d := range w.stack.daemons {
		n += d.e.EnableKernelStats().KernelSpans(core.KernelForward)
		n += d.be.EnableKernelStats().KernelSpans(batch.KernelForward)
	}
	return n
}

func (w *requestWorkload) close() {
	if w.client != nil {
		w.client.close()
	}
	w.stack.close()
	w.prep.cleanup()
}
