package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/levelize"
	"insta/internal/refsta"
	"insta/internal/sched"
	"insta/internal/server"
	"insta/internal/snap"
)

// perLayer are the traced pass's metrics: every layer timed from outside
// through its public functions, request layers as a ladder of rungs. README.md
// maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "refsta.new_ms", unit: "ms"},
	{name: "circuitops.extract_ms", unit: "ms"},
	{name: "levelize.full_ms", unit: "ms"},
	{name: "levelize.levels", unit: "count"},
	{name: "core.compile_ms", unit: "ms"},
	{name: "core.engine_new_ms", unit: "ms"},
	{name: "core.engine_mem_mb", unit: "MB"},
	{name: "core.queue_mb_computed", unit: "MB"},
	{name: "core.forward_ms", unit: "ms"},
	{name: "core.forward_p90_ms", unit: "ms"},
	{name: "core.forward_ns_per_pin", unit: "ns"},
	{name: "core.slack_ms", unit: "ms"},
	{name: "core.backward_ms", unit: "ms"},
	{name: "core.kernel_allocs_per_run", unit: "count"},
	{name: "core.forward_top5_level_share", unit: "1"},
	{name: "core.small_level_frac", unit: "1"},
	{name: "core.overlay_small_us", unit: "us"},
	{name: "core.overlay_large_ms", unit: "ms"},
	{name: "core.overlay_pins_large", unit: "count"},
	{name: "core.overlay_allocs", unit: "count"},
	{name: "batch.engine_new_ms", unit: "ms"},
	{name: "batch.engine_mem_mb", unit: "MB"},
	{name: "batch.forward_ms", unit: "ms"},
	{name: "batch.forward_ns_per_pin_scn", unit: "ns"},
	{name: "batch.slack_ms", unit: "ms"},
	{name: "batch.kernel_allocs_per_run", unit: "count"},
	{name: "batch.loop_over_batched", unit: "1"},
	{name: "batch.overlay_small_us", unit: "us"},
	{name: "batch.overlay_large_ms", unit: "ms"},
	{name: "sched.launches_per_run", unit: "count"},
	{name: "sched.serial_launch_frac", unit: "1"},
	{name: "sched.imbalance", unit: "1"},
	{name: "sched.w2_over_w1", unit: "1"},
	{name: "sched.dispatch_us_per_launch", unit: "us"},
	{name: "snap.encode_ms", unit: "ms"},
	{name: "snap.bytes_mb", unit: "MB"},
	{name: "snap.load_ms", unit: "ms"},
	{name: "server.boot_ms", unit: "ms"},
	{name: "server.eco_api_small_us", unit: "us"},
	{name: "server.eco_api_large_ms", unit: "ms"},
	{name: "server.eco_self_small_us", unit: "us"},
	{name: "server.eco_http_small_us", unit: "us"},
	{name: "server.eco_http_large_ms", unit: "ms"},
	{name: "server.http_self_small_us", unit: "us"},
	{name: "server.eco_resp_bytes_large", unit: "count"},
	{name: "server.read_api_us", unit: "us"},
	{name: "server.read_http_us", unit: "us"},
	{name: "server.read_resp_bytes", unit: "count"},
	{name: "server.base_read_http_us", unit: "us"},
	{name: "server.create_http_us", unit: "us"},
	{name: "server.allocs_per_eco_small", unit: "count"},
	{name: "server.allocs_per_eco_large", unit: "count"},
	{name: "server.allocs_per_read", unit: "count"},
	{name: "server.allocs_per_create", unit: "count"},
	{name: "server.c2_over_c1_p50", unit: "1"},
	{name: "server.gc_pause_max_us", unit: "us"},
	{name: "server.http_errors", unit: "count"},
	{name: "fleet.ready_ms", unit: "ms"},
	{name: "fleet.eco_hop_small_us", unit: "us"},
	{name: "fleet.read_hop_us", unit: "us"},
	{name: "fleet.create_hop_us", unit: "us"},
	{name: "fleet.allocs_per_hop", unit: "count"},
	{name: "fleet.queue_wait_p50_us", unit: "us"},
	{name: "fleet.queue_wait_p99_us", unit: "us"},
	{name: "fleet.serve_p50_us", unit: "us"},
	{name: "fleet.admission_timeouts", unit: "count"},
	{name: "fleet.retries", unit: "count"},
	{name: "fleet.replica_share_max", unit: "1"},
	{name: "trace.overhead_frac", unit: "1"},
}

// probe is the traced pass's state: the tracer every call into a layer is
// wrapped by, the metrics collected so far, and the ops that went wrong.
type probe struct {
	cfg    *config
	tr     *tracer
	m      map[string]float64
	extra  map[string]any // tables that ride along in the trace file
	errors int
}

func (p *probe) kernelN() int { return 3 + p.cfg.probeN/50 }
func (p *probe) largeN() int  { return 3 + p.cfg.probeN/25 }

// measureLayers is the traced pass: the named workload run with and without
// the harness tracer for half the window (their p50 ratio is the tracing
// overhead, and the spans show which layers the workload spends its time
// in), then every layer probed from outside, which takes about as long
// again. It writes out/trace_<workload>.json.
func measureLayers(cfg *config, name string) (*report, error) {
	p := &probe{cfg: cfg, tr: newTracer(), m: map[string]float64{}, extra: map[string]any{}}
	w, _, err := newWorkload(cfg, name)
	if err != nil {
		return nil, err
	}
	// Kernel stats on the daemons show whether a request window ever ran a
	// full propagation; it must not.
	rw, _ := w.(*requestWorkload)
	rw.fullPropagateSpans()
	warmUp(w, cfg.warm)
	// Alternate untraced and traced slices so host drift lands on both
	// sides of the overhead ratio alike; each side is its quiet slices.
	var plain, traced []float64
	failed, ops := 0, 0
	for i, end := 0, time.Now().Add(cfg.window/2); i < 2 || time.Now().Before(end); i++ {
		tr, side := (*tracer)(nil), &plain
		if i%2 == 1 {
			tr, side = p.tr, &traced
		}
		lat, f := w.slice(tr)
		failed, ops = failed+f, ops+len(lat)+f
		if len(lat) == 0 {
			w.close()
			return nil, fmt.Errorf("%s: no op completed correctly in a traced-pass slice (%d failed)", name, failed)
		}
		sortDurations(lat)
		*side = append(*side, ms(median(lat)))
	}
	if n := rw.fullPropagateSpans(); n > 0 {
		failed++
		fmt.Printf("traced %s: %d pins went through a full-propagate kernel during request windows\n", name, n)
	}
	w.close()
	p.m["trace.overhead_frac"] = quiet(traced)/quiet(plain) - 1
	workloadSelf := map[string]float64{}
	for span, d := range p.tr.selfTimes() {
		workloadSelf[span] = ms(d)
	}
	p.extra["workloadSelfTimeMs"] = workloadSelf // before the probes add their own spans

	for _, layer := range []func() error{p.core, p.batch, p.serving} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	if err := p.tr.write(filepath.Join(cfg.outDir, "trace_"+name+".json"), p.extra); err != nil {
		return nil, err
	}
	fmt.Printf("traced %s: self time by span (ms):", name)
	for _, span := range sortedKeys(workloadSelf) {
		fmt.Printf(" %s=%.1f", span, workloadSelf[span])
	}
	fmt.Println()

	r := &report{
		Correct: failed+p.errors == 0, Attempted: ops + p.errors, Failed: failed + p.errors,
		Metrics: map[string]metricValue{}, samples: ops - failed,
	}
	for _, d := range perLayer {
		v, ok := p.m[d.name]
		if !ok {
			return nil, fmt.Errorf("traced pass did not measure %s", d.name)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return r, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// kernels times n rounds of the given kernel calls, each in its own span,
// and returns the sorted times per kernel and the allocations per round.
func (p *probe) kernels(n int, names []string, calls []func()) ([][]time.Duration, float64) {
	times := make([][]time.Duration, len(calls))
	for k := range times {
		times[k] = make([]time.Duration, 0, n)
	}
	m0 := mallocs()
	for i := 0; i < n; i++ {
		for k, call := range calls {
			id := p.tr.begin(names[k], -1, i, 0)
			t0 := time.Now()
			call()
			times[k] = append(times[k], time.Since(t0))
			p.tr.end(id)
		}
	}
	allocs := float64(mallocs()-m0) / float64(n)
	for k := range times {
		sortDurations(times[k])
	}
	return times, allocs
}

// core probes the analysis pipeline on the full_k32 design: every cold
// set-up stage on its own, then the three kernels with kernel stats on.
func (p *probe) core() error {
	gen, err := bench.Generate(p.cfg.full.spec)
	if err != nil {
		return err
	}
	var (
		ref *refsta.Engine
		tab *circuitops.Tables
		lv  *levelize.Result
		st  *core.State
		e   *core.Engine
	)
	p.m["refsta.new_ms"] = ms(p.tr.timed("refsta.new", func() {
		ref, err = refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
	}))
	if err != nil {
		return err
	}
	p.m["circuitops.extract_ms"] = ms(p.tr.timed("circuitops.extract", func() { tab = circuitops.Extract(ref) }))
	arcs := make([]levelize.Arc, len(tab.Arcs))
	for i, a := range tab.Arcs {
		arcs[i] = levelize.Arc{From: a.From, To: a.To}
	}
	p.m["levelize.full_ms"] = ms(p.tr.timed("levelize.full", func() { lv, err = levelize.Levelize(tab.NumPins, arcs) }))
	if err != nil {
		return err
	}
	p.m["levelize.levels"] = float64(lv.NumLevels)
	p.m["core.compile_ms"] = ms(p.tr.timed("core.compile", func() { st, err = core.Compile(tab) }))
	if err != nil {
		return err
	}
	p.m["core.engine_new_ms"] = ms(p.tr.timed("core.engine_new", func() { e, err = core.NewEngineFromState(st, fullOpts) }))
	if err != nil {
		return err
	}
	defer e.Close()
	pins := float64(st.NumPins)
	p.m["core.engine_mem_mb"] = float64(e.MemoryBytes()) / 1e6
	p.m["core.queue_mb_computed"] = 2 * pins * float64(fullOpts.TopK) * 28 / 1e6 // 2 transitions × K × (3 float64 + 1 int32)

	stats := e.EnableKernelStats()
	e.Run()
	e.Backward()
	stats.Reset()
	n := p.kernelN()
	times, allocs := p.kernels(n,
		[]string{"core.forward", "core.slack", "core.backward"},
		[]func(){e.Propagate, func() { e.EvalSlacks() }, e.Backward})
	p.m["core.forward_ms"] = ms(median(times[0]))
	p.m["core.forward_p90_ms"] = ms(quantile(times[0], 0.9))
	p.m["core.forward_ns_per_pin"] = float64(median(times[0])) / pins
	p.m["core.slack_ms"] = ms(median(times[1]))
	p.m["core.backward_ms"] = ms(median(times[2]))
	p.m["core.kernel_allocs_per_run"] = allocs

	small := 0
	for l := 0; l < st.NumLevels; l++ {
		if st.LvLevelStart[l+1]-st.LvLevelStart[l] < 256 {
			small++
		}
	}
	p.m["core.small_level_frac"] = float64(small) / float64(st.NumLevels)
	for _, kp := range stats.Snapshot() {
		if kp.Kernel != core.KernelForward {
			continue
		}
		type row struct {
			Level    int     `json:"level"`
			Pins     int64   `json:"pins"`
			Ns       float64 `json:"ns"`
			NsPerPin float64 `json:"ns_per_pin"`
		}
		var table []row
		var walls []time.Duration
		for _, l := range kp.Levels {
			table = append(table, row{l.Level, l.Spans / int64(n), float64(l.Wall) / float64(n), float64(l.Wall) / float64(max(l.Spans, 1))})
			walls = append(walls, l.Wall)
		}
		sortDurations(walls)
		var top time.Duration
		for _, w := range walls[max(len(walls)-5, 0):] {
			top += w
		}
		p.m["core.forward_top5_level_share"] = float64(top) / float64(kp.Wall)
		p.extra["coreForwardLevels"] = table
	}
	return nil
}

// batch probes the scenario-batched engine and the worker pool under it on
// the corners_s8 design.
func (p *probe) batch() error {
	b, err := p.cfg.corners.build()
	if err != nil {
		return err
	}
	var be *batch.Engine
	p.m["batch.engine_new_ms"] = ms(p.tr.timed("batch.engine_new", func() {
		be, err = batch.NewFromState(b.st, scenarios8, cornersOpts)
	}))
	if err != nil {
		return err
	}
	defer be.Close()
	p.m["batch.engine_mem_mb"] = float64(be.MemoryBytes()) / 1e6
	stats := be.EnableKernelStats()
	be.Run()
	stats.Reset()
	n := p.kernelN()
	times, allocs := p.kernels(n, []string{"batch.forward", "batch.slack"}, []func(){be.Propagate, be.EvalSlacks})
	p.m["batch.forward_ms"] = ms(median(times[0]))
	p.m["batch.forward_ns_per_pin_scn"] = float64(median(times[0])) / float64(b.st.NumPins*len(scenarios8))
	p.m["batch.slack_ms"] = ms(median(times[1]))
	p.m["batch.kernel_allocs_per_run"] = allocs
	be.Pool().SetStats(nil)

	// The worker pool, which the workloads' one worker runs inline: the same
	// Run on one worker and on two, interleaved, with the pool's launch
	// counters read on the two-worker engine.
	one, two := cornersOpts, cornersOpts
	two.Workers = 2
	be2, err := batch.NewFromState(b.st, scenarios8, two)
	if err != nil {
		return err
	}
	defer be2.Close()
	stats = be2.EnableKernelStats()
	be2.Run()
	stats.Reset()
	runs, _ := p.kernels(n, []string{"batch.run_w1", "batch.run_w2"}, []func(){be.Run, be2.Run})
	p.m["sched.w2_over_w1"] = float64(median(runs[0])) / float64(median(runs[1]))
	for _, kp := range stats.Snapshot() {
		if kp.Kernel == batch.KernelForward {
			p.m["sched.launches_per_run"] = float64(kp.Launches) / float64(n)
			p.m["sched.serial_launch_frac"] = float64(kp.SerialLaunches) / float64(kp.Launches)
			p.m["sched.imbalance"] = kp.AvgImbalance
		}
	}
	be2.Pool().SetStats(nil)

	// An empty kernel of two chunks: what one parallel launch costs.
	pool := sched.New(2, 0)
	const launches = 20000
	noop := func(lo, hi int) {}
	width := 2 * pool.Grain()
	d := p.tr.timed("sched.dispatch", func() {
		for i := 0; i < launches; i++ {
			pool.Run(width, noop)
		}
	})
	pool.Close()
	p.m["sched.dispatch_us_per_launch"] = us(d) / launches

	// Eight derated single-corner engines against one batched engine,
	// construction plus one Run each, engines only.
	loop := func() {
		for _, scn := range scenarios8 {
			e, lerr := core.NewEngine(batch.ScaleTables(b.tab, scn), one)
			if lerr != nil {
				err = lerr
				return
			}
			e.Run()
			e.Close()
		}
	}
	batched := func() {
		e, berr := batch.New(b.tab, scenarios8, one)
		if berr != nil {
			err = berr
			return
		}
		e.Run()
		e.Close()
	}
	runs, _ = p.kernels(3, []string{"batch.loop8", "batch.batched8"}, []func(){loop, batched})
	p.m["batch.loop_over_batched"] = float64(median(runs[0])) / float64(median(runs[1]))
	return err
}

// op times n calls of do, each in its own span, running undo untimed after
// each, and returns the sorted latencies and do's allocations per call.
func (p *probe) op(name string, n int, do, undo func() error) ([]time.Duration, float64) {
	step := func(f func() error) {
		if f == nil {
			return
		}
		if err := f(); err != nil {
			p.errors++
		}
	}
	step(do) // first use sizes freelists and buffers
	step(undo)
	lat := make([]time.Duration, 0, n)
	var allocs uint64
	for i := 0; i < n; i++ {
		m0 := mallocs()
		id := p.tr.begin(name, -1, i, 0)
		t0 := time.Now()
		step(do)
		lat = append(lat, time.Since(t0))
		p.tr.end(id)
		allocs += mallocs() - m0
		step(undo)
	}
	sortDurations(lat)
	return lat, float64(allocs) / float64(n)
}

// expectOK turns an HTTP exchange into an error unless it returned want.
func expectOK(want int) func(int, []byte, error) error {
	return func(status int, _ []byte, err error) error {
		if err == nil && status != want {
			err = fmt.Errorf("HTTP status %d, want %d", status, want)
		}
		return err
	}
}

// httpRung is one client connection with a live session, for the HTTP and
// router rungs of the ladder.
type httpRung struct {
	*conn
	sid       []byte
	respBytes int // size of the last ECO or read response
}

func newHTTPRung(addr string) (*httpRung, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	h := &httpRung{conn: c}
	return h, h.create()
}

func (h *httpRung) create() error {
	status, resp, err := h.roundTrip("POST", "/session", nil, "", nil)
	if err := expectOK(http.StatusCreated)(status, resp, err); err != nil {
		return err
	}
	id, ok := sessionID(resp)
	if !ok {
		return errMalformed
	}
	h.sid = append(h.sid[:0], id...)
	return nil
}

func (h *httpRung) delete() error {
	return expectOK(http.StatusOK)(h.roundTrip("DELETE", "/session/", h.sid, "", nil))
}

func (h *httpRung) eco(body []byte) func() error {
	return func() error {
		status, resp, err := h.roundTrip("POST", "/session/", h.sid, "/eco", body)
		h.respBytes = len(resp)
		return expectOK(http.StatusOK)(status, resp, err)
	}
}

func (h *httpRung) rollback() error {
	return expectOK(http.StatusOK)(h.roundTrip("POST", "/session/", h.sid, "/rollback", nil))
}

func (h *httpRung) read() error {
	status, resp, err := h.roundTrip("GET", "/session/", h.sid, "/slacks", nil)
	h.respBytes = len(resp)
	return expectOK(http.StatusOK)(status, resp, err)
}

func (h *httpRung) baseRead() error {
	return expectOK(http.StatusOK)(h.roundTrip("GET", "/slacks", nil, "", nil))
}

// serving probes the request path on the serving design as a ladder: the
// same small (2-arc) and large (512-arc) ECO replayed by one client at each
// depth — core overlay, batch overlay, Session API, HTTP, fleet router — so a
// layer's self time is its rung minus the rung below.
func (p *probe) serving() error {
	prep, err := prepareServed(p.cfg, mixes["fleet_mix"])
	if err != nil {
		return err
	}
	defer prep.cleanup()
	var pause runtime.MemStats
	runtime.ReadMemStats(&pause)
	gcBefore := pause.NumGC

	var blob []byte
	p.m["snap.encode_ms"] = ms(p.tr.timed("snap.encode", func() { blob = snap.Encode(prep.st, scenarios8[:3], prep.key) }))
	p.m["snap.bytes_mb"] = float64(len(blob)) / 1e6
	loads := sample(5, func() {
		if _, lerr := prep.cache.Load(prep.key); lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		return err
	}
	p.m["snap.load_ms"] = ms(median(loads))

	var single, fleet2 *stack
	boots := sample(3, func() {
		if single != nil {
			single.close()
		}
		id := p.tr.begin("server.boot", -1, -1, 0)
		single, err = boot(prep.cache, prep.key, 0)
		p.tr.end(id)
	})
	if err != nil {
		return err
	}
	defer single.close()
	p.m["server.boot_ms"] = ms(median(boots))
	// The router in front of daemons that are already up: what the fleet
	// layer itself adds to set-up.
	fleet2, err = loadDaemons(prep.cache, prep.key, 2)
	defer fleet2.close()
	if err != nil {
		return err
	}
	p.m["fleet.ready_ms"] = ms(p.tr.timed("fleet.ready", func() {
		if err = fleet2.front(); err == nil {
			err = awaitHealthy(fleet2.addr)
		}
	}))
	if err != nil {
		return err
	}

	nSmall, nLarge := p.cfg.probeN, p.largeN()
	d := single.daemons[0]

	// Rung 0 and 1: the overlays, directly.
	ov := core.NewOverlay(d.e)
	coreOp := func(req *server.ECORequest) func() error {
		return func() error {
			for _, a := range req.Arcs {
				ov.SetArcDelay(a.Arc, 0, a.Rise)
				ov.SetArcDelay(a.Arc, 1, a.Fall)
			}
			ov.Propagate()
			_ = ov.WNS()
			return nil
		}
	}
	// The two ladder bodies, pinned like the traffic's. One arc's cone runs
	// from one pin to thousands, so "small" is the candidate with the median
	// cone of 31, not whichever the generator happens to draw first.
	rng := rand.New(rand.NewSource(pinnedTraffic))
	var t traffic
	cone := map[int]int{}
	for i := 0; i < 31; i++ {
		body, err := t.addBody(rng, smallArcs, prep.st)
		if err != nil {
			return err
		}
		_ = coreOp(&t.reqs[body])()
		cone[body] = ov.Stats().OverlayPins
		ov.Reset()
	}
	byCone := make([]int, len(t.reqs))
	for i := range byCone {
		byCone[i] = i
	}
	slices.SortFunc(byCone, func(a, b int) int { return cone[a] - cone[b] })
	small := byCone[len(byCone)/2]
	large, err := t.addBody(rng, largeArcs, prep.st)
	if err != nil {
		return err
	}
	coreReset := func() error { ov.Reset(); return nil }
	coreSmall, coreAllocs := p.op("core.overlay", nSmall, coreOp(&t.reqs[small]), coreReset)
	p.m["core.overlay_small_us"], p.m["core.overlay_allocs"] = us(median(coreSmall)), coreAllocs
	conePins := 0
	coreLarge, _ := p.op("core.overlay", nLarge, coreOp(&t.reqs[large]), func() error {
		conePins = ov.Stats().OverlayPins
		return coreReset()
	})
	p.m["core.overlay_large_ms"], p.m["core.overlay_pins_large"] = ms(median(coreLarge)), float64(conePins)

	bov := batch.NewOverlay(d.be)
	batchOp := func(req *server.ECORequest) func() error {
		return func() error {
			for _, a := range req.Arcs {
				bov.SetArcDelay(a.Arc, 0, a.Rise.Mean, a.Rise.Std)
				bov.SetArcDelay(a.Arc, 1, a.Fall.Mean, a.Fall.Std)
			}
			bov.Propagate()
			_ = bov.MergedWNS()
			return nil
		}
	}
	batchReset := func() error { bov.Reset(); return nil }
	batchSmall, _ := p.op("batch.overlay", nSmall, batchOp(&t.reqs[small]), batchReset)
	batchLarge, _ := p.op("batch.overlay", nLarge, batchOp(&t.reqs[large]), batchReset)
	p.m["batch.overlay_small_us"], p.m["batch.overlay_large_ms"] = us(median(batchSmall)), ms(median(batchLarge))

	// Rung 2: the Session API in process.
	sess, err := d.mgr.Create()
	if err != nil {
		return err
	}
	apiOp := func(req server.ECORequest) func() error {
		return func() error { _, err := sess.ApplyECO(req); return err }
	}
	apiSmall, _ := p.op("server.eco_api", nSmall, apiOp(t.reqs[small]), sess.Rollback)
	apiLarge, _ := p.op("server.eco_api", nLarge, apiOp(t.reqs[large]), sess.Rollback)
	p.m["server.eco_api_small_us"], p.m["server.eco_api_large_ms"] = us(median(apiSmall)), ms(median(apiLarge))
	p.m["server.eco_self_small_us"] = us(median(apiSmall) - median(coreSmall) - median(batchSmall))
	if _, err := sess.ApplyECO(t.reqs[small]); err != nil {
		return err
	}
	var slacks []float64
	readAPI, _ := p.op("server.read_api", nSmall, func() error {
		var err error
		slacks, err = sess.SlacksInto(slacks[:0])
		return err
	}, nil)
	p.m["server.read_api_us"] = us(median(readAPI))
	sess.Close()

	// Rung 3: HTTP to the daemon. Rung 4: the same through the router.
	direct, err := newHTTPRung(single.addr)
	if err != nil {
		return err
	}
	defer direct.close()
	routed, err := newHTTPRung(fleet2.addr)
	if err != nil {
		return err
	}
	defer routed.close()
	type rungTimes struct {
		ecoSmall, ecoLarge, read, base, create time.Duration
		allocs                                 [4]float64 // eco small, eco large, read, create
		respLarge, respRead                    int
	}
	climb := func(layer string, h *httpRung) rungTimes {
		var r rungTimes
		lat, a := p.op(layer+".eco_http", nSmall, h.eco(t.bodies[small]), h.rollback)
		r.ecoSmall, r.allocs[0] = median(lat), a
		lat, a = p.op(layer+".eco_http", nLarge, h.eco(t.bodies[large]), h.rollback)
		r.ecoLarge, r.allocs[1], r.respLarge = median(lat), a, h.respBytes
		// Reads see a session that holds the small ECO, as reads in the mixes do.
		if err := h.eco(t.bodies[small])(); err != nil {
			p.errors++
		}
		lat, a = p.op(layer+".read_http", nSmall, h.read, nil)
		r.read, r.allocs[2], r.respRead = median(lat), a, h.respBytes
		if err := h.rollback(); err != nil {
			p.errors++
		}
		lat, _ = p.op(layer+".base_read_http", nSmall, h.baseRead, nil)
		r.base = median(lat)
		// Session create is timed with the rung's own session closed, and
		// the rung gets a fresh one afterwards.
		if err := h.delete(); err != nil {
			p.errors++
		}
		lat, a = p.op(layer+".create_http", nSmall, h.create, h.delete)
		r.create, r.allocs[3] = median(lat), a
		if err := h.create(); err != nil {
			p.errors++
		}
		return r
	}
	hr := climb("server", direct)
	p.m["server.eco_http_small_us"], p.m["server.eco_http_large_ms"] = us(hr.ecoSmall), ms(hr.ecoLarge)
	p.m["server.http_self_small_us"] = us(hr.ecoSmall - median(apiSmall))
	p.m["server.eco_resp_bytes_large"], p.m["server.read_resp_bytes"] = float64(hr.respLarge), float64(hr.respRead)
	p.m["server.read_http_us"], p.m["server.base_read_http_us"] = us(hr.read), us(hr.base)
	p.m["server.create_http_us"] = us(hr.create)
	p.m["server.allocs_per_eco_small"], p.m["server.allocs_per_eco_large"] = hr.allocs[0], hr.allocs[1]
	p.m["server.allocs_per_read"], p.m["server.allocs_per_create"] = hr.allocs[2], hr.allocs[3]
	fr := climb("fleet", routed)
	p.m["fleet.eco_hop_small_us"] = us(fr.ecoSmall - hr.ecoSmall)
	p.m["fleet.read_hop_us"] = us(fr.read - hr.read)
	p.m["fleet.create_hop_us"] = us(fr.create - hr.create)
	p.m["fleet.allocs_per_hop"] = fr.allocs[0] - hr.allocs[0]

	// Two sessions issuing small ECOs at once against one: the session lock
	// and the pool's launch mutex under concurrency.
	second, err := newHTTPRung(single.addr)
	if err != nil {
		return err
	}
	defer second.close()
	type half struct {
		lat    []time.Duration
		errors int
	}
	both := make(chan half, 2)
	for _, h := range []*httpRung{direct, second} {
		go func(h *httpRung) {
			q := &probe{cfg: p.cfg} // untraced, with counters of its own
			lat, _ := q.op("", nSmall, h.eco(t.bodies[small]), h.rollback)
			both <- half{lat, q.errors}
		}(h)
	}
	a, b := <-both, <-both
	p.errors += a.errors + b.errors
	pair := append(a.lat, b.lat...)
	sortDurations(pair)
	p.m["server.c2_over_c1_p50"] = float64(median(pair)) / float64(hr.ecoSmall)

	// The fleet_mix traffic through the router, for the flight recorder's
	// split of each request into admission wait and upstream service.
	mixed := &requestWorkload{stack: fleet2}
	if mixed.client, err = newClient(fleet2.addr, "fleet", prep.t); err != nil {
		return err
	}
	defer mixed.client.close()
	for end := time.Now().Add(p.cfg.warm); time.Now().Before(end); {
		_, failed := mixed.slice(p.tr)
		p.errors += failed
	}
	var queue, serve []time.Duration
	for _, rec := range fleet2.pool.FlightRecorder().Snapshot() {
		queue, serve = append(queue, time.Duration(rec.QueueNs)), append(serve, time.Duration(rec.ServeNs))
	}
	sortDurations(queue)
	sortDurations(serve)
	p.m["fleet.queue_wait_p50_us"], p.m["fleet.queue_wait_p99_us"] = us(median(queue)), us(quantile(queue, 0.99))
	p.m["fleet.serve_p50_us"] = us(median(serve))
	var prom bytes.Buffer
	fleet2.pool.Metrics().WritePrometheus(&prom)
	counters := promValues(&prom)
	p.m["fleet.admission_timeouts"] = counters["fleet_admission_timeouts_total"]
	p.m["fleet.retries"] = counters["fleet_retries_total"]
	var most, total float64
	for name, v := range counters {
		if strings.HasPrefix(name, "fleet_replica_requests_total{") {
			most, total = max(most, v), total+v
		}
	}
	p.m["fleet.replica_share_max"] = most / total

	runtime.ReadMemStats(&pause)
	var worst uint64
	for gc := pause.NumGC; gc > gcBefore && gc+uint32(len(pause.PauseNs)) > pause.NumGC; gc-- {
		worst = max(worst, pause.PauseNs[(gc+255)%256])
	}
	p.m["server.gc_pause_max_us"] = float64(worst) / 1e3
	p.m["server.http_errors"] = float64(p.errors)
	return nil
}

// promValues reads "name value" sample lines out of a Prometheus exposition.
func promValues(buf *bytes.Buffer) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(value, 64); ok && err == nil && !strings.HasPrefix(name, "#") {
			out[name] = v
		}
	}
	return out
}
