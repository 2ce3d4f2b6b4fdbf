// Command insta-benchdiff turns the alternating parent/change runs of
// benchmark/run.sh recorded in a results/prNN_benchmark_pairs.jsonl file into
// the table of DESIGN.md §12's ten-pair protocol: per workload and end-to-end
// metric of BENCHMARK.json the two medians, the pairs the change won, the
// parent's own spread and a verdict, as markdown for EXPERIMENTS.md.
//
//	insta-benchdiff [-contract BENCHMARK.json] results/prNN_benchmark_pairs.jsonl
//
// With -traced the file holds `--trace 1` runs instead ({"side","run","result"}
// per line) and the table is one row per per_layer rung of the contract: each
// side's readings, sorted, and their median. Rungs carry no bounds, so no
// verdicts.
//
//	insta-benchdiff -traced results/prNN_traced_rungs.jsonl
//
// Exit status 1: a row regressed, an op failed or a run was not correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// contract is the part of BENCHMARK.json a verdict depends on.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // how much worse, as a fraction of the parent median, is a regression
}

// run is one line of the pairs file: what benchmark/run.sh printed last. A
// line of a traced file has the same shape without workload and pair.
type run struct {
	Side     string `json:"side"` // "parent" or "change"
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// row is the verdict on one workload × metric; totals what was run.
type row struct {
	Workload, Metric string
	Parent, Change   float64 // medians
	IQR              float64 // of the parent's runs
	Bound            float64
	Wins, Pairs      int // pairs the change read better in; ties count for neither side
	Verdict          string
}

type totals struct{ Runs, Attempted, Failed, Incorrect int }

// tally totals what the runs of a file attempted.
func tally(runs []run) totals {
	var tot totals
	for _, r := range runs {
		tot.Runs++
		tot.Attempted += r.Result.Attempted
		tot.Failed += r.Result.Failed
		if !r.Result.Correct {
			tot.Incorrect++
		}
	}
	return tot
}

// quantile is the linearly interpolated q-quantile of sorted v.
func quantile(v []float64, q float64) float64 {
	h := float64(len(v)-1) * q
	i := int(h)
	return v[i] + (h-float64(i))*(v[min(i+1, len(v)-1)]-v[i])
}

// diff applies the simplicity-review rule to every workload × metric of the
// contract. improved: the change wins at least nine tenths of the pairs and
// the medians lie further apart than the parent's quartiles. regressed: the
// change's median is worse than the parent's by more than the bound.
// unresolved: the parent's quartile spread exceeds the bound and some change
// run reads no better than some parent run. Otherwise unchanged.
func diff(c *contract, runs []run) ([]row, totals) {
	type key struct{ workload, side string }
	byPair := map[key]map[int]run{}
	for _, r := range runs {
		k := key{r.Workload, r.Side}
		if byPair[k] == nil {
			byPair[k] = map[int]run{}
		}
		byPair[k][r.Pair] = r
	}
	var rows []row
	for _, w := range c.Workloads {
		parent, change := byPair[key{w.Name, "parent"}], byPair[key{w.Name, "change"}]
		for _, m := range c.EndToEnd {
			// better reports whether a reads better than b on this metric.
			better := func(a, b float64) bool { return a != b && (a < b) == (m.Better == "lower") }
			var ps, cs []float64
			out := row{Workload: w.Name, Metric: m.Name, Bound: m.Bound}
			for pair, p := range parent {
				pv := p.Result.Metrics[m.Name].Value
				ps = append(ps, pv)
				if ch, ok := change[pair]; ok {
					out.Pairs++
					if better(ch.Result.Metrics[m.Name].Value, pv) {
						out.Wins++
					}
				}
			}
			for _, ch := range change {
				cs = append(cs, ch.Result.Metrics[m.Name].Value)
			}
			if len(ps) == 0 || len(cs) == 0 {
				continue // the file holds no runs of this workload
			}
			sort.Float64s(ps)
			sort.Float64s(cs)
			out.Parent, out.Change = quantile(ps, 0.5), quantile(cs, 0.5)
			out.IQR = quantile(ps, 0.75) - quantile(ps, 0.25)
			gap := math.Abs(out.Change - out.Parent)
			worstChange, bestParent := cs[len(cs)-1], ps[0] // overlap unless the first beats the second
			if m.Better != "lower" {
				worstChange, bestParent = cs[0], ps[len(ps)-1]
			}
			switch {
			case 10*out.Wins >= 9*out.Pairs && better(out.Change, out.Parent) && gap > out.IQR:
				out.Verdict = "improved"
			case better(out.Parent, out.Change) && gap > m.Bound*out.Parent:
				out.Verdict = "regressed"
			case out.IQR > m.Bound*out.Parent && !better(worstChange, bestParent):
				out.Verdict = "unresolved"
			default:
				out.Verdict = "unchanged"
			}
			rows = append(rows, out)
		}
	}
	return rows, tally(runs)
}

// report prints the table and the totals, and says whether the file passes.
func report(w io.Writer, rows []row, tot totals) bool {
	ok := tot.Failed == 0 && tot.Incorrect == 0
	fmt.Fprintln(w, "| workload | metric | parent median | change median | Δ | bound | parent IQR | change better in | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %+.1f%% | %.0f%% | %.4g (%.1f%%) | %d/%d | %s |\n",
			r.Workload, r.Metric, r.Parent, r.Change, 100*(r.Change-r.Parent)/r.Parent,
			100*r.Bound, r.IQR, 100*r.IQR/r.Parent, r.Wins, r.Pairs, r.Verdict)
		ok = ok && r.Verdict != "regressed"
	}
	fmt.Fprintf(w, "\n%d runs, %d ops attempted, %d failed, %d runs not `correct`\n",
		tot.Runs, tot.Attempted, tot.Failed, tot.Incorrect)
	return ok
}

// rung is one per-layer metric of the traced runs: each side's readings,
// sorted.
type rung struct {
	Name           string
	Parent, Change []float64
}

// rungs collects the traced readings of every per_layer metric of the
// contract that some run reports, in the contract's order.
func rungs(c *contract, runs []run) ([]rung, totals) {
	var out []rung
	for _, m := range c.PerLayer {
		g := rung{Name: m.Name}
		for _, r := range runs {
			v, ok := r.Result.Metrics[m.Name]
			switch {
			case ok && r.Side == "parent":
				g.Parent = append(g.Parent, v.Value)
			case ok && r.Side == "change":
				g.Change = append(g.Change, v.Value)
			}
		}
		if len(g.Parent)+len(g.Change) > 0 {
			sort.Float64s(g.Parent)
			sort.Float64s(g.Change)
			out = append(out, g)
		}
	}
	return out, tally(runs)
}

// reading formats one value: a count in full (a cone of 13169 pins is not
// 1.317e+04), a measurement to four significant digits.
func reading(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// readings formats one side of a rung: "a b c → **median**", or the value
// alone when every run read the same.
func readings(v []float64) string {
	if len(v) == 0 {
		return "—"
	}
	if v[0] == v[len(v)-1] {
		return reading(v[0]) + " (all runs)"
	}
	var b strings.Builder
	for _, x := range v {
		b.WriteString(reading(x) + " ")
	}
	return b.String() + "→ **" + reading(quantile(v, 0.5)) + "**"
}

// reportRungs prints the rung table and the totals, and says whether every
// run was correct and complete.
func reportRungs(w io.Writer, rows []rung, tot totals) bool {
	fmt.Fprintln(w, "| rung | parent | change |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, g := range rows {
		fmt.Fprintf(w, "| `%s` | %s | %s |\n", g.Name, readings(g.Parent), readings(g.Change))
	}
	fmt.Fprintf(w, "\n%d runs, %d ops attempted, %d failed, %d runs not `correct`\n",
		tot.Runs, tot.Attempted, tot.Failed, tot.Incorrect)
	return tot.Failed == 0 && tot.Incorrect == 0
}

func load(contractPath, pairsPath string) (*contract, []run, error) {
	buf, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, nil, err
	}
	c := new(contract)
	if err = json.Unmarshal(buf, c); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", contractPath, err)
	}
	f, err := os.Open(pairsPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var runs []run
	for dec := json.NewDecoder(f); dec.More(); {
		var r run
		if err := dec.Decode(&r); err != nil {
			return nil, nil, fmt.Errorf("%s: run %d: %w", pairsPath, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return c, runs, nil
}

func main() {
	contractPath := flag.String("contract", "BENCHMARK.json", "the benchmark contract naming workloads, metrics and bounds")
	traced := flag.Bool("traced", false, "the file holds --trace 1 runs: print each per_layer rung's readings per side")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: insta-benchdiff [-contract BENCHMARK.json] results/prNN_benchmark_pairs.jsonl\n"+
			"       insta-benchdiff [-contract BENCHMARK.json] -traced results/prNN_traced_rungs.jsonl")
		os.Exit(2)
	}
	c, runs, err := load(*contractPath, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var ok bool
	if *traced {
		rows, tot := rungs(c, runs)
		ok = reportRungs(os.Stdout, rows, tot)
	} else {
		rows, tot := diff(c, runs)
		ok = report(os.Stdout, rows, tot)
	}
	if !ok {
		os.Exit(1)
	}
}
