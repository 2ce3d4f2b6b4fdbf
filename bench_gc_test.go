// GC/allocation regression harness: TestGCBenchRegression measures the
// serving steady state on two levels and writes BENCH_gc.json at the repo
// root. The API section uses testing.AllocsPerRun on the three hot
// operations the zero-allocation work targets — a session /slacks read into
// a reused buffer, an ECO preview re-propagating an overlay cone, and an
// incremental forward re-propagation on the base engine — and must read
// (approximately) zero once warm. The HTTP section drives a closed request
// loop against the full insta-served stack and reports allocation rate,
// worst-case GC pause (from the /gc/pauses:seconds histogram) and
// p50/p99/p999 request latency; the HTTP numbers are dominated by net/http
// per-request machinery, so their gates are deliberately generous — the
// regression signal is the trend in the JSON, the gate only catches
// order-of-magnitude breakage. ci.sh runs this with INSTA_GC_GATE=1, which
// arms the hard limits; ad-hoc runs get loose noise guards only.
package insta

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/refsta"
	"insta/internal/server"
)

// gcAPIReport is the allocs/op verdict on the session/engine API hot paths,
// measured without any HTTP machinery in the loop.
type gcAPIReport struct {
	SlacksReadAllocsPerOp  float64 `json:"slacks_read_allocs_per_op"`
	ECOPreviewAllocsPerOp  float64 `json:"eco_preview_allocs_per_op"`
	IncrementalAllocsPerOp float64 `json:"incremental_allocs_per_op"`
}

// arcDeltasAt builds a scattered small-cone arc perturbation: arcs ≡ start
// (mod stride) with their nominal delays scaled by meanScale.
func arcDeltasAt(e *core.Engine, start, stride int32, meanScale float64) []refsta.ArcDelta {
	var out []refsta.ArcDelta
	for arc := start; arc < int32(e.NumArcs()); arc += stride {
		var dl refsta.ArcDelta
		dl.ArcID = arc
		for rf := 0; rf < 2; rf++ {
			d := e.ArcDelay(arc, rf)
			d.Mean *= meanScale
			dl.Delay[rf] = d
		}
		out = append(out, dl)
	}
	return out
}

type gcBenchReport struct {
	NumCPU     int            `json:"numcpu"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Preset     string         `json:"preset"`
	API        gcAPIReport    `json:"api"`
	HTTP       bench.GCReport `json:"http_closed_loop"`
}

func TestGCBenchRegression(t *testing.T) {
	const preset = "block-2"
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mgr := server.NewManager(e, s.Ref, server.Options{MaxSessions: 4})

	report := gcBenchReport{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Preset:     preset,
	}

	// --- API section: allocs/op on the warm hot paths, no HTTP ---

	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	deltas := arcDeltasAt(e, 3, int32(e.NumArcs()/16), 1.03)
	if _, err := sess.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	var buf []float64
	if buf, err = sess.SlacksInto(buf); err != nil {
		t.Fatal(err)
	}
	report.API.SlacksReadAllocsPerOp = testing.AllocsPerRun(50, func() {
		buf, err = sess.SlacksInto(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})

	ov := core.NewOverlay(e)
	preview := func() {
		for _, dl := range deltas {
			ov.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
			ov.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
		}
		ov.Propagate()
		_ = ov.WNS()
	}
	preview() // warm: populates the overlay's pin set and scratch
	report.API.ECOPreviewAllocsPerOp = testing.AllocsPerRun(50, preview)

	// Incremental re-prop on a private engine (mutating the served base
	// outside Exclusive would break the manager's epoch contract). The two
	// annotations alternate so every op walks a real changed cone.
	e2, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.Run()
	incArc := deltas[0].ArcID
	incArcs := []int32{incArc}
	d0 := e2.ArcDelay(incArc, 0)
	d1 := d0
	d1.Mean *= 1.05
	flip := false
	incremental := func() {
		d := d0
		if flip {
			d = d1
		}
		flip = !flip
		e2.SetArcDelay(incArc, 0, d)
		e2.PropagateIncremental(incArcs)
	}
	incremental()
	incremental() // warm both cone shapes
	report.API.IncrementalAllocsPerOp = testing.AllocsPerRun(50, incremental)

	// --- HTTP section: closed-loop load over the full serving stack ---

	srv := httptest.NewServer(server.New(mgr, preset).Handler())
	defer srv.Close()
	client := srv.Client()

	var sid struct {
		ID string `json:"id"`
	}
	resp, err := client.Post(srv.URL+"/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sid); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := serveECOBody(t, e, 1, int32(e.NumArcs()/16))

	do := func(method, url string, reqBody []byte) time.Duration {
		var rd io.Reader
		if reqBody != nil {
			rd = bytes.NewReader(reqBody)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(t0)
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, url, resp.StatusCode)
		}
		return d
	}
	ecoURL := srv.URL + "/session/" + sid.ID + "/eco"
	slacksURL := srv.URL + "/session/" + sid.ID + "/slacks"
	for i := 0; i < 5; i++ { // warm connections, pools, overlay cones
		do(http.MethodPost, ecoURL, body)
		do(http.MethodGet, slacksURL, nil)
	}

	const iters = 100
	lat := bench.NewLatencyRecorder(2 * iters)
	probe := bench.StartGCProbe()
	for i := 0; i < iters; i++ {
		lat.Record(do(http.MethodPost, ecoURL, body))
		lat.Record(do(http.MethodGet, slacksURL, nil))
		if (i+1)%25 == 0 {
			// Charge the loop for real collections even if the pacer never
			// fires on its own — the pause figure must come from somewhere.
			probe.ForceGC()
		}
	}
	report.HTTP = probe.Report(2*iters, lat)

	t.Logf("%s api allocs/op: slacks=%.1f preview=%.1f incremental=%.1f",
		preset, report.API.SlacksReadAllocsPerOp,
		report.API.ECOPreviewAllocsPerOp, report.API.IncrementalAllocsPerOp)
	t.Logf("%s http: %.0f ops/s, %.1f allocs/op, %.2f MB/s alloc rate, %d GC (%d forced), max pause %.0fus, p50=%dus p99=%dus p999=%dus",
		preset, report.HTTP.OpsPerSec, report.HTTP.AllocsPerOp,
		report.HTTP.AllocRateMBps, report.HTTP.NumGC, report.HTTP.ForcedGC,
		report.HTTP.MaxPauseUs, report.HTTP.P50Us, report.HTTP.P99Us, report.HTTP.P999Us)

	// Gates. INSTA_GC_GATE=1 (ci.sh) arms the real limits; otherwise only
	// catastrophic breakage fails, so a loaded ad-hoc machine stays green.
	gate := os.Getenv("INSTA_GC_GATE") == "1"
	apiLimit, pauseLimitUs, allocLimit := 64.0, 250_000.0, 10_000.0
	if gate {
		// The API paths are designed to be allocation-free; a small epsilon
		// absorbs one-off growth (a map rehash, a freelist refill) without
		// letting a per-op allocation back in.
		apiLimit = 2.0
		// Worst-case GC pause: generous for a 1-CPU CI box, but an engine
		// that re-allocates its tensors per op blows through it easily.
		pauseLimitUs = 25_000.0
		// net/http costs ~tens of allocations per request; the engine side
		// must not add materially to that.
		allocLimit = 1_000.0
	}
	if a := report.API.SlacksReadAllocsPerOp; a > apiLimit {
		t.Errorf("session slacks read: %.1f allocs/op > %.1f", a, apiLimit)
	}
	if a := report.API.ECOPreviewAllocsPerOp; a > apiLimit {
		t.Errorf("eco preview: %.1f allocs/op > %.1f", a, apiLimit)
	}
	if a := report.API.IncrementalAllocsPerOp; a > apiLimit {
		t.Errorf("incremental re-prop: %.1f allocs/op > %.1f", a, apiLimit)
	}
	if p := report.HTTP.MaxPauseUs; p > pauseLimitUs {
		t.Errorf("max GC pause %.0fus > %.0fus", p, pauseLimitUs)
	}
	if a := report.HTTP.AllocsPerOp; a > allocLimit {
		t.Errorf("http loop: %.1f allocs/op > %.1f", a, allocLimit)
	}

	writeBenchJSON(t, "BENCH_gc.json", &report)
}
