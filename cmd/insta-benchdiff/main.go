// Command insta-benchdiff turns the alternating parent/change runs of
// benchmark/run.sh recorded in a results/prNN_benchmark_pairs.jsonl file into
// the table of DESIGN.md §12's ten-pair protocol: per workload and end-to-end
// metric of BENCHMARK.json the two medians, the pairs the change won, the
// parent's own spread and a verdict, as markdown for EXPERIMENTS.md.
//
//	insta-benchdiff [-contract BENCHMARK.json] results/prNN_benchmark_pairs.jsonl
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
)

// contract is the part of BENCHMARK.json a verdict depends on.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // how much worse, as a fraction of the parent median, is a regression
}

// run is one line of the pairs file: what benchmark/run.sh printed last.
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
	var tot totals
	type key struct{ workload, side string }
	byPair := map[key]map[int]run{}
	for _, r := range runs {
		tot.Runs++
		tot.Attempted += r.Result.Attempted
		tot.Failed += r.Result.Failed
		if !r.Result.Correct {
			tot.Incorrect++
		}
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
	return rows, tot
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
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: insta-benchdiff [-contract BENCHMARK.json] results/prNN_benchmark_pairs.jsonl")
		os.Exit(2)
	}
	c, runs, err := load(*contractPath, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rows, tot := diff(c, runs)
	if !report(os.Stdout, rows, tot) {
		os.Exit(1)
	}
}
