// Fleet bench regression harness: TestFleetBenchRegression drives the same
// closed-loop workload (internal/fleet/loadgen) against one insta-served
// daemon and against a 4-replica fleet behind the router, then exercises the
// two fleet-specific latency mechanisms — hedged base reads against a
// deliberate straggler replica, and a rolling snapshot swap under live
// session churn — writing BENCH_fleet.json at the repo root.
//
// Why the fleet wins p99 on a few-core host: one daemon admits every session
// request immediately, so N concurrent ECO previews timeshare the CPU and
// *all* of them finish late (processor-sharing queueing — BENCH_serve.json's
// session_parallel p99 is ~5x its serialized p99 on one core). The fleet's
// global in-flight cap (GOMAXPROCS) queues the same requests at the router
// and runs them back to back, so most finish at serialized speed and only
// the queue tail is slow. Correctness is gated unconditionally (zero errors,
// zero dropped sessions through a rolling swap); the latency bounds —
// fleet p99 <= single-daemon p99 and hedged read p999 < unhedged — are armed
// by INSTA_FLEET_GATE=1 (ci.sh step 9), since wall-clock comparisons on a
// loaded CI box are otherwise flaky.
package insta

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/fleet"
	"insta/internal/fleet/loadgen"
	"insta/internal/refsta"
	"insta/internal/server"
)

// fleetPhase is one load phase's row in BENCH_fleet.json.
type fleetPhase struct {
	Replicas int `json:"replicas"`
	loadgen.Report
}

// hedgePhase compares base-read tails with the hedge off and on while one of
// two replicas straggles.
type hedgePhase struct {
	StragglerMS    float64 `json:"straggler_ms"`
	UnhedgedP99Us  int64   `json:"unhedged_p99_us"`
	UnhedgedP999Us int64   `json:"unhedged_p999_us"`
	HedgedP99Us    int64   `json:"hedged_p99_us"`
	HedgedP999Us   int64   `json:"hedged_p999_us"`
	HedgeFires     int64   `json:"hedge_fires"`
	HedgeWins      int64   `json:"hedge_wins"`
}

// swapPhase is the rolling-swap-under-load outcome; DroppedSessions is the
// unconditional zero gate.
type swapPhase struct {
	Replicas        int     `json:"replicas"`
	Swapped         int     `json:"swapped"`
	TotalMS         float64 `json:"total_ms"`
	Ops             int     `json:"ops"`
	Errors          int     `json:"errors"`
	DroppedSessions int     `json:"dropped_sessions"`
	SessionsCreated int     `json:"sessions_created"`
}

type fleetBenchReport struct {
	NumCPU     int        `json:"numcpu"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Preset     string     `json:"preset"`
	Gated      bool       `json:"gated"`
	Single     fleetPhase `json:"single_daemon"`
	Fleet      fleetPhase `json:"fleet_of_4"`
	Hedge      hedgePhase `json:"hedged_reads"`
	Swap       swapPhase  `json:"rolling_swap"`
}

// fleetBenchRig owns the compiled state plus every engine/manager/listener
// built on it, torn down in reverse order at the end of the test.
type fleetBenchRig struct {
	t       *testing.T
	st      *core.State
	ref     *refsta.Engine
	preset  string
	mu      sync.Mutex
	engines []*core.Engine
	mgrs    []*server.Manager
}

func (rig *fleetBenchRig) newBackend(workers, maxSessions int) http.Handler {
	rig.t.Helper()
	e, err := core.NewEngineFromState(rig.st, core.Options{TopK: 8, Workers: workers})
	if err != nil {
		rig.t.Fatal(err)
	}
	mgr := server.NewManager(e, rig.ref, server.Options{MaxSessions: maxSessions})
	rig.mu.Lock()
	rig.engines = append(rig.engines, e)
	rig.mgrs = append(rig.mgrs, mgr)
	rig.mu.Unlock()
	return server.New(mgr, rig.preset).Handler()
}

func (rig *fleetBenchRig) close() {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	for _, m := range rig.mgrs {
		m.CloseAll()
	}
	for _, e := range rig.engines {
		e.Close()
	}
	rig.mgrs, rig.engines = nil, nil
}

// fleetECOBody is serveECOBody with a caller-chosen arc budget, so the body
// set can span small-to-large previews over disjoint residue classes.
func fleetECOBody(t *testing.T, e *core.Engine, class, stride int32, maxArcs int) []byte {
	t.Helper()
	var req server.ECORequest
	for arc := class; arc < int32(e.NumArcs()) && len(req.Arcs) < maxArcs; arc += stride {
		rise, fall := e.ArcDelay(arc, 0), e.ArcDelay(arc, 1)
		rise.Mean *= 1.02
		fall.Mean *= 1.02
		req.Arcs = append(req.Arcs, server.ArcECO{Arc: arc, Rise: rise, Fall: fall})
	}
	if len(req.Arcs) != maxArcs {
		t.Fatalf("residue class %d mod %d yields %d arcs, want %d", class, stride, len(req.Arcs), maxArcs)
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// counterValue scrapes one plain (unlabeled) counter off the router's
// /metrics exposition.
func counterValue(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return int64(v)
		}
	}
	return 0
}

func TestFleetBenchRegression(t *testing.T) {
	const (
		preset      = "block-5"
		concurrency = 8
		totalOps    = 480
		nFleet      = 4
	)
	gated := os.Getenv("INSTA_FLEET_GATE") == "1"

	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Compile(s.Tab)
	if err != nil {
		t.Fatal(err)
	}
	rig := &fleetBenchRig{t: t, st: st, ref: s.Ref, preset: preset}
	defer rig.close()

	// ECO bodies over disjoint arc residue classes, replayed identically by
	// both load phases (arc delays come from an engine; any engine over st
	// sees the same arcs). Arc counts are deliberately heavy-tailed — mostly
	// small previews with an occasional large one — because service-time
	// variability is where the queueing disciplines separate: under
	// processor sharing a large ECO is stretched by the full
	// multiprogramming level for its whole (long) residence, while FIFO
	// charges it the mean queue plus itself. Near-deterministic sizes would
	// give both disciplines the same closed-loop p99 and the comparison
	// would measure only proxy overhead.
	bodyEngine, err := core.NewEngineFromState(st, core.Options{TopK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	arcBudgets := []int{1, 2, 1, 4, 2, 8, 1, 2, 4, 1, 16, 2, 1, 4, 2, 512}
	bodies := make([][]byte, len(arcBudgets))
	for i := range bodies {
		bodies[i] = fleetECOBody(t, bodyEngine, int32(i), int32(len(arcBudgets)), arcBudgets[i])
	}
	bodyEngine.Close()

	workload := loadgen.Options{
		Concurrency: concurrency,
		Ops:         totalOps,
		SessionOps:  10,
		Mix:         loadgen.Mix{ECO: 8, SessionRead: 1, BaseRead: 1},
		Bodies:      bodies,
	}

	// Phase 1 — single daemon, all cores, no admission control: the
	// processor-sharing baseline.
	single := fleetPhase{Replicas: 1}
	{
		lr, err := fleet.NewLocalReplica(rig.newBackend(runtime.NumCPU(), 64))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := loadgen.Run(context.Background(), lr.URL(), workload)
		lr.Close()
		if err != nil {
			t.Fatal(err)
		}
		single.Report = *rep
	}

	// Phase 2 — the same workload through a 4-replica fleet with the global
	// in-flight cap at GOMAXPROCS: FIFO-like queueing at the router.
	fleet4 := fleetPhase{Replicas: nFleet}
	{
		var urls []string
		var lrs []*fleet.LocalReplica
		perReplica := runtime.NumCPU() / nFleet
		if perReplica < 1 {
			perReplica = 1
		}
		for i := 0; i < nFleet; i++ {
			lr, err := fleet.NewLocalReplica(rig.newBackend(perReplica, 32))
			if err != nil {
				t.Fatal(err)
			}
			lrs = append(lrs, lr)
			urls = append(urls, lr.URL())
		}
		// Hedging is off here: it trades duplicate read work for tail
		// latency, which only pays when there is spare capacity — this phase
		// deliberately saturates the host, and phase 3 measures hedging on
		// its own terms.
		pool, err := fleet.New(urls, fleet.Options{
			HealthInterval: 50 * time.Millisecond,
			GlobalInflight: runtime.GOMAXPROCS(0),
			AdmissionWait:  30 * time.Second,
			DisableHedge:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		router := httptest.NewServer(pool.Handler())
		rep, err := loadgen.Run(context.Background(), router.URL, workload)
		router.Close()
		pool.Close()
		for _, lr := range lrs {
			lr.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		fleet4.Report = *rep
	}

	// Correctness is unconditional for both load phases.
	for _, ph := range []struct {
		name string
		p    fleetPhase
	}{{"single_daemon", single}, {"fleet_of_4", fleet4}} {
		if ph.p.Errors != 0 || ph.p.DroppedSessions != 0 {
			t.Errorf("%s: errors=%d dropped_sessions=%d, want 0/0",
				ph.name, ph.p.Errors, ph.p.DroppedSessions)
		}
	}
	if gated && fleet4.P99Us > single.P99Us {
		t.Errorf("fleet p99 %dus exceeds single-daemon p99 %dus under INSTA_FLEET_GATE",
			fleet4.P99Us, single.P99Us)
	}

	// The fleet phase runs behind the router, which stamps every response with
	// a Traceparent echo even with the span tracer off — so the report's
	// slowest-request list must carry well-formed trace IDs, the handles a
	// debugging session would feed to GET /debug/trace/{trace}.
	if len(fleet4.Slowest) == 0 {
		t.Error("fleet_of_4: loadgen captured no slowest-request traces behind the router")
	}
	for i, s := range fleet4.Slowest {
		if len(s.Trace) != 32 || s.Us <= 0 || s.Route == "" {
			t.Errorf("fleet_of_4 slowest[%d] malformed: %+v", i, s)
		}
		if i > 0 && s.Us > fleet4.Slowest[i-1].Us {
			t.Errorf("fleet_of_4 slowest not sorted descending at %d: %+v", i, fleet4.Slowest)
		}
	}

	// Phase 3 — hedged reads: two replicas, one straggling 10ms on every base
	// read. Unhedged, round-robin parks half the reads behind the straggler;
	// hedged, a second attempt fires after the p95-derived delay (clamped to
	// 2ms here) and the fast replica's response wins. One closed-loop reader:
	// hedging trades duplicate work for tail latency, so the win shows where
	// there is spare capacity for the duplicate — with several readers
	// saturating this one-core host, queueing noise would swamp the straggler
	// signal the phase exists to measure. The armed bound compares p99 (500
	// samples, so ~5 outliers tolerated) rather than p999: at 1-in-1000, the
	// quantile is the sample max, and one scheduler stall on a shared
	// one-core CI host is indistinguishable from a straggler there. p999 is
	// still recorded in the report for both runs.
	const stragglerDelay = 10 * time.Millisecond
	hedge := hedgePhase{StragglerMS: float64(stragglerDelay.Nanoseconds()) / 1e6}
	{
		straggle := func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/slacks" {
					time.Sleep(stragglerDelay)
				}
				h.ServeHTTP(w, r)
			})
		}
		var urls []string
		var lrs []*fleet.LocalReplica
		for i := 0; i < 2; i++ {
			h := rig.newBackend(1, 8)
			if i == 0 {
				h = straggle(h)
			}
			lr, err := fleet.NewLocalReplica(h)
			if err != nil {
				t.Fatal(err)
			}
			lrs = append(lrs, lr)
			urls = append(urls, lr.URL())
		}
		readLoad := loadgen.Options{
			Concurrency: 1,
			Ops:         500,
			Mix:         loadgen.Mix{BaseRead: 1},
		}
		runReads := func(opt fleet.Options) (*loadgen.Report, string, func()) {
			pool, err := fleet.New(urls, opt)
			if err != nil {
				t.Fatal(err)
			}
			router := httptest.NewServer(pool.Handler())
			rep, err := loadgen.Run(context.Background(), router.URL, readLoad)
			if err != nil {
				t.Fatal(err)
			}
			return rep, router.URL, func() { router.Close(); pool.Close() }
		}
		unhedged, _, closeA := runReads(fleet.Options{
			HealthInterval: 50 * time.Millisecond,
			DisableHedge:   true,
		})
		closeA()
		hedged, routerURL, closeB := runReads(fleet.Options{
			HealthInterval: 50 * time.Millisecond,
			HedgeMin:       time.Millisecond,
			HedgeMax:       2 * time.Millisecond,
		})
		hedge.UnhedgedP99Us = unhedged.ReadP99Us
		hedge.UnhedgedP999Us = unhedged.ReadP999Us
		hedge.HedgedP99Us = hedged.ReadP99Us
		hedge.HedgedP999Us = hedged.ReadP999Us
		hedge.HedgeFires = counterValue(t, routerURL, "fleet_hedge_fires_total")
		hedge.HedgeWins = counterValue(t, routerURL, "fleet_hedge_wins_total")
		closeB()
		for _, lr := range lrs {
			lr.Close()
		}
		if unhedged.Errors != 0 || hedged.Errors != 0 {
			t.Errorf("hedge phase errors: unhedged=%d hedged=%d", unhedged.Errors, hedged.Errors)
		}
		if hedge.HedgeFires == 0 {
			t.Error("hedge phase: no hedges fired against a 5ms straggler")
		}
		if gated && hedge.HedgedP99Us >= hedge.UnhedgedP99Us {
			t.Errorf("hedged read p99 %dus not below unhedged %dus under INSTA_FLEET_GATE",
				hedge.HedgedP99Us, hedge.UnhedgedP99Us)
		}
	}

	// Phase 4 — rolling swap under live session churn. The swap function
	// replaces a drained replica's backend with a fresh manager over the same
	// compiled state (the in-process analogue of a snapshot-cache reboot).
	// Zero dropped sessions is the point of the drain protocol and is gated
	// unconditionally.
	swap := swapPhase{Replicas: 2}
	{
		var lrs []*fleet.LocalReplica
		var urls []string
		for i := 0; i < 2; i++ {
			lr, err := fleet.NewLocalReplica(rig.newBackend(1, 16))
			if err != nil {
				t.Fatal(err)
			}
			lrs = append(lrs, lr)
			urls = append(urls, lr.URL())
		}
		pool, err := fleet.New(urls, fleet.Options{
			HealthInterval: 20 * time.Millisecond,
			DrainPoll:      5 * time.Millisecond,
			Swap: func(ctx context.Context, r *fleet.Replica) error {
				lrs[r.ID].SetHandler(rig.newBackend(1, 16))
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		router := httptest.NewServer(pool.Handler())

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *loadgen.Report, 1)
		go func() {
			rep, err := loadgen.Run(ctx, router.URL, loadgen.Options{
				Concurrency: 4,
				Ops:         1 << 20, // bounded by ctx, not the op budget
				SessionOps:  5,
				Mix:         loadgen.Mix{ECO: 4, SessionRead: 1, BaseRead: 1},
				Bodies:      bodies,
			})
			if err != nil {
				t.Error(err)
			}
			done <- rep
		}()
		time.Sleep(150 * time.Millisecond) // let sessions populate first
		sr, err := pool.RollingSwap(context.Background())
		cancel()
		rep := <-done
		router.Close()
		pool.Close()
		for _, lr := range lrs {
			lr.Close()
		}
		if err != nil {
			t.Fatalf("rolling swap: %v (report %+v)", err, sr)
		}
		swap.Swapped = sr.Swapped
		swap.TotalMS = sr.TotalMS
		if rep != nil {
			swap.Ops = rep.Ops
			swap.Errors = rep.Errors
			swap.DroppedSessions = rep.DroppedSessions
			swap.SessionsCreated = rep.SessionsCreated
		}
		if swap.Swapped != swap.Replicas {
			t.Errorf("rolling swap replaced %d of %d replicas", swap.Swapped, swap.Replicas)
		}
		if swap.DroppedSessions != 0 || swap.Errors != 0 {
			t.Errorf("rolling swap under load: errors=%d dropped_sessions=%d, want 0/0",
				swap.Errors, swap.DroppedSessions)
		}
		if swap.Ops == 0 {
			t.Error("rolling swap phase completed no ops — swap was not under load")
		}
	}

	t.Logf("%s: single p99 %dus | fleet-of-%d p99 %dus | reads p99 unhedged %dus hedged %dus (%d fires, %d wins) | swap %d/%d in %.1fms over %d ops",
		preset, single.P99Us, nFleet, fleet4.P99Us,
		hedge.UnhedgedP99Us, hedge.HedgedP99Us, hedge.HedgeFires, hedge.HedgeWins,
		swap.Swapped, swap.Replicas, swap.TotalMS, swap.Ops)

	report := fleetBenchReport{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Preset:     preset,
		Gated:      gated,
		Single:     single,
		Fleet:      fleet4,
		Hedge:      hedge,
		Swap:       swap,
	}
	writeBenchJSON(t, "BENCH_fleet.json", &report)
}
