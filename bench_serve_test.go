// Serving bench regression harness: TestServeBenchRegression drives the
// insta-served HTTP surface over one engine and times the same ECO request
// stream two ways — fanned out across concurrent copy-on-write sessions and
// serialized through a single session — writing BENCH_serve.json at the repo
// root (requests/sec plus p50/p99 latency per mode). Like BENCH_sched.json,
// the ratio is recorded rather than gated tightly: single-CPU CI machines make
// hard speedup assertions flaky. The hard gate is correctness-side: every
// request must return 200.
package insta

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/server"
)

// serveModeResult is one request-scheduling mode's row in BENCH_serve.json.
type serveModeResult struct {
	Requests  int     `json:"requests"`
	Sessions  int     `json:"sessions"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50Us     int64   `json:"p50_us"`
	P99Us     int64   `json:"p99_us"`
}

type serveBenchReport struct {
	NumCPU     int             `json:"numcpu"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Preset     string          `json:"preset"`
	Parallel   serveModeResult `json:"session_parallel"`
	Serialized serveModeResult `json:"serialized"`
}

// serveECOBody builds the arc-form ECO JSON for one residue class: every
// class perturbs a disjoint arc set, so concurrent sessions never contend on
// annotations while their fan-out cones still overlap.
func serveECOBody(t *testing.T, e *core.Engine, class, stride int32) []byte {
	t.Helper()
	var req server.ECORequest
	for arc := class; arc < int32(e.NumArcs()) && len(req.Arcs) < 16; arc += stride {
		rise, fall := e.ArcDelay(arc, 0), e.ArcDelay(arc, 1)
		rise.Mean *= 1.02
		fall.Mean *= 1.02
		req.Arcs = append(req.Arcs, server.ArcECO{Arc: arc, Rise: rise, Fall: fall})
	}
	if len(req.Arcs) == 0 {
		t.Fatalf("residue class %d mod %d has no arcs", class, stride)
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// percentileUs picks the q-th latency (upper rank) in microseconds.
func percentileUs(lat []time.Duration, q float64) int64 {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(q * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return lat[i].Microseconds()
}

func TestServeBenchRegression(t *testing.T) {
	const (
		preset     = "block-5"
		nSessions  = 8
		reqPerSess = 10
	)
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mgr := server.NewManager(e, s.Ref, server.Options{MaxSessions: nSessions + 1})
	srv := httptest.NewServer(server.New(mgr, preset).Handler())
	defer srv.Close()
	client := srv.Client()

	newSession := func() string {
		resp, err := client.Post(srv.URL+"/session", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || out.ID == "" {
			t.Fatalf("session create: status %d id %q", resp.StatusCode, out.ID)
		}
		return out.ID
	}
	closeSession := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/session/"+id, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post := func(url string, body []byte) (int, time.Duration) {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(t0)
		resp.Body.Close()
		return resp.StatusCode, d
	}

	// One request body per (session, request) slot; residue classes are
	// disjoint across all slots. Both modes replay the identical stream.
	const stride = nSessions * reqPerSess
	bodies := make([][]byte, stride)
	for i := range bodies {
		bodies[i] = serveECOBody(t, e, int32(i), stride)
	}

	// Session-parallel: each session's requests run sequentially in its own
	// goroutine; sessions overlap, sharing the frozen base under read locks.
	parallel := serveModeResult{Requests: stride, Sessions: nSessions}
	{
		ids := make([]string, nSessions)
		for g := range ids {
			ids[g] = newSession()
		}
		lat := make([]time.Duration, stride)
		var bad sync.Map
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < nSessions; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < reqPerSess; j++ {
					slot := g*reqPerSess + j
					code, d := post(srv.URL+"/session/"+ids[g]+"/eco", bodies[slot])
					lat[slot] = d
					if code != http.StatusOK {
						bad.Store(slot, code)
					}
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(t0)
		bad.Range(func(k, v any) bool {
			t.Errorf("parallel request %v returned %v", k, v)
			return true
		})
		parallel.ReqPerSec = float64(stride) / wall.Seconds()
		parallel.P50Us = percentileUs(lat, 0.50)
		parallel.P99Us = percentileUs(lat, 0.99)
		for _, id := range ids {
			closeSession(id)
		}
	}

	// Serialized: the same stream through one session, one request at a time.
	serialized := serveModeResult{Requests: stride, Sessions: 1}
	{
		id := newSession()
		lat := make([]time.Duration, stride)
		t0 := time.Now()
		for slot := range bodies {
			code, d := post(srv.URL+"/session/"+id+"/eco", bodies[slot])
			lat[slot] = d
			if code != http.StatusOK {
				t.Errorf("serialized request %d returned %d", slot, code)
			}
		}
		wall := time.Since(t0)
		serialized.ReqPerSec = float64(stride) / wall.Seconds()
		serialized.P50Us = percentileUs(lat, 0.50)
		serialized.P99Us = percentileUs(lat, 0.99)
		closeSession(id)
	}

	t.Logf("%s: parallel %d sess %.0f req/s (p50 %dus p99 %dus) | serialized %.0f req/s (p50 %dus p99 %dus)",
		preset, nSessions, parallel.ReqPerSec, parallel.P50Us, parallel.P99Us,
		serialized.ReqPerSec, serialized.P50Us, serialized.P99Us)

	report := serveBenchReport{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Preset:     preset,
		Parallel:   parallel,
		Serialized: serialized,
	}
	writeBenchJSON(t, "BENCH_serve.json", &report)
}
