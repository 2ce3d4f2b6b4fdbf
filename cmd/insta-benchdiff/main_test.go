package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

// verdicts runs the tool's two halves over a checked-in pairs file.
func verdicts(t *testing.T, pairs string) (map[string]row, bool) {
	t.Helper()
	c, runs, err := load("../../BENCHMARK.json", "../../results/"+pairs)
	if err != nil {
		t.Fatal(err)
	}
	rows, tot := diff(c, runs)
	if want := len(c.Workloads) * len(c.EndToEnd); len(rows) != want {
		t.Fatalf("%s: %d rows, want %d (workloads x end-to-end metrics)", pairs, len(rows), want)
	}
	if tot.Runs != len(runs) || tot.Attempted == 0 {
		t.Fatalf("%s: totals %+v over %d runs", pairs, tot, len(runs))
	}
	by := map[string]row{}
	for _, r := range rows {
		by[r.Workload+"/"+r.Metric] = r
	}
	return by, report(io.Discard, rows, tot)
}

// TestCheckedInPairs holds the verdicts to what EXPERIMENTS.md concluded by
// hand: PR 18 claimed full_k32 op_p50_ms and won every pair (its file holds
// eleven, the confirmation seed included) while setup_s of corners_s8 drifted
// inside its bound; PR 16 claimed nothing and moved nothing.
func TestCheckedInPairs(t *testing.T) {
	pr18, ok := verdicts(t, "pr18_benchmark_pairs.jsonl")
	if r := pr18["full_k32/op_p50_ms"]; r.Verdict != "improved" || r.Wins != r.Pairs || r.Pairs != 11 {
		t.Errorf("pr18 full_k32/op_p50_ms: %+v, want improved in 11/11", r)
	}
	if r := pr18["corners_s8/setup_s"]; r.Verdict != "unchanged" || r.Wins > 3 {
		t.Errorf("pr18 corners_s8/setup_s: %+v, want unchanged (+11%% of a 25%% bound)", r)
	}
	if r := pr18["read_mix/ops_per_s"]; r.Verdict != "improved" || r.Change <= r.Parent {
		t.Errorf("pr18 read_mix/ops_per_s (higher is better): %+v, want improved", r)
	}
	pr16, ok16 := verdicts(t, "pr16_benchmark_pairs.jsonl")
	for name, r := range pr16 {
		if r.Verdict != "unchanged" {
			t.Errorf("pr16 %s: %+v, want unchanged", name, r)
		}
	}
	for name, r := range pr18 {
		if r.Verdict == "regressed" {
			t.Errorf("pr18 %s: %+v regressed", name, r)
		}
	}
	if !ok || !ok16 {
		t.Errorf("exit status: pr18 ok=%v pr16 ok=%v, want both true", ok, ok16)
	}
}

// TestCheckedInTracedRungs reads PR 18's traced file the way EXPERIMENTS.md
// tabulated it by hand: three runs per side, core.forward_ms 109.1 -> 84.1 at
// the median, the large cone 13 169 pins in every run.
func TestCheckedInTracedRungs(t *testing.T) {
	c, runs, err := load("../../BENCHMARK.json", "../../results/pr18_traced_rungs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rows, tot := rungs(c, runs)
	if tot.Runs != 6 || len(rows) == 0 || len(rows) > len(c.PerLayer) {
		t.Fatalf("%d rungs of %d from %+v", len(rows), len(c.PerLayer), tot)
	}
	by := map[string]rung{}
	for _, g := range rows {
		if !sort.Float64sAreSorted(g.Parent) || !sort.Float64sAreSorted(g.Change) {
			t.Errorf("%s: readings not sorted: %+v", g.Name, g)
		}
		by[g.Name] = g
	}
	if got := readings(by["core.overlay_pins_large"].Change); got != "13169 (all runs)" {
		t.Errorf("core.overlay_pins_large: %q", got)
	}
	var out strings.Builder
	if !reportRungs(&out, rows, tot) {
		t.Error("six correct runs reported as failing")
	}
	if want := "| `core.forward_ms` | 98.49 109.1 109.5 → **109.1** | 78.29 84.1 84.18 → **84.1** |"; !strings.Contains(out.String(), want) {
		t.Errorf("table lacks the row\n%s\ngot\n%s", want, out.String())
	}
}

// TestVerdictRule drives each branch of the rule with a synthetic metric.
func TestVerdictRule(t *testing.T) {
	var c contract
	if err := json.Unmarshal([]byte(`{"workloads": [{"name": "w"}],
		"end_to_end": [{"name": "ms", "better": "lower", "bound": 0.10}]}`), &c); err != nil {
		t.Fatal(err)
	}
	mk := func(parent, change []float64, failed int) []run {
		var out []run
		for side, vals := range map[string][]float64{"parent": parent, "change": change} {
			for i, v := range vals {
				var r run
				line := fmt.Sprintf(`{"side": %q, "workload": "w", "pair": %d, "result": {"correct": true,
					"attempted": 10, "failed": %d, "metrics": {"ms": {"value": %g, "unit": "ms"}}}}`, side, i+1, failed, v)
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatal(err)
				}
				out = append(out, r)
			}
		}
		return out
	}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{70, 130, 80, 120, 75, 125, 90, 110, 100, 100}
	shift := func(v []float64, d float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] + d
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		failed         int
		verdict        string
		ok             bool
	}{
		{"improved", tight, shift(tight, -5), 0, "improved", true},
		{"regressed", tight, shift(tight, 15), 0, "regressed", false},
		{"worse inside the bound", tight, shift(tight, 5), 0, "unchanged", true},
		{"tie counts for neither", tight, tight, 0, "unchanged", true},
		{"parent spread wider than the bound", wide, shift(wide, 2), 0, "unresolved", true},
		{"failed ops fail the file", tight, tight, 1, "unchanged", false},
	} {
		rows, tot := diff(&c, mk(tc.parent, tc.change, tc.failed))
		if len(rows) != 1 || rows[0].Verdict != tc.verdict {
			t.Errorf("%s: %+v, want %s", tc.name, rows, tc.verdict)
		}
		if ok := report(io.Discard, rows, tot); ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v", tc.name, ok, tc.ok)
		}
		if tc.name == "tie counts for neither" && rows[0].Wins != 0 {
			t.Errorf("ties counted as wins: %+v", rows[0])
		}
	}
}
