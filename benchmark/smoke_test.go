package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"insta/internal/bench"
	"insta/internal/liberty"
)

// smokeConfig shrinks the benchmark to tier-1 size: one des-sized design for
// every workload, 160 ms windows, single set-ups, a handful of probe samples,
// and all output under the test's temp directory.
func smokeConfig(t *testing.T) *config {
	small := design{spec: bench.Spec{
		Name: "des", Seed: 203, Tech: liberty.TechASAP7(),
		Groups: 4, FFsPerGroup: 70, Layers: 11, Width: 32,
		CrossFrac: 0.08, NumPIs: 32, NumPOs: 32,
		Period: 3000, Uncertainty: 12, VioFrac: 0.1, ExtraTight: 380,
		FalsePaths: 8, Multicycles: 4, Die: 300,
	}}
	return &config{
		seed: 1, window: 160 * time.Millisecond, warm: 40 * time.Millisecond,
		colds: 1, boots: 1, cycleECOs: 32, probeN: 10, outDir: t.TempDir(),
		full: small, corners: small, serve: small,
	}
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) (m struct {
	Workloads []struct{ Name string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkReport asserts the report carries exactly the manifest's metrics, each
// finite and in its unit.
func checkReport(t *testing.T, workload string, r *report, want []manifestMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", workload, len(r.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := r.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", workload, w.Name)
		case got.Unit != w.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v is not finite", workload, w.Name, got.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadNames) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the harness has %d, %d and %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloadNames), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if mm := m.EndToEnd[i]; mm.Name != d.name || mm.Unit != d.unit || mm.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, mm, d)
		}
	}
	_, outErr := os.Stat("out")

	cfg := smokeConfig(t)
	for i, name := range workloadNames {
		if m.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, m.Workloads[i].Name, name)
		}
		r, err := measureEndToEnd(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, name, r, m.EndToEnd)
	}
	// One traced pass covers every per-layer metric whatever the workload;
	// fleet_mix also exercises the router-side spans.
	r, err := measureLayers(cfg, "fleet_mix")
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "fleet_mix traced", r, m.PerLayer)
	if _, err := os.Stat(cfg.outDir + "/trace_fleet_mix.json"); err != nil {
		t.Errorf("traced pass wrote no span file: %v", err)
	}
	if _, err := os.Stat("out"); outErr != nil && err == nil {
		t.Error("the smoke test wrote benchmark/out; everything belongs under t.TempDir()")
	}
}
