// Command insta-hier runs the hierarchical flow over a stitched chip preset:
// boot each unique block, extract (or cache-load) its interface timing
// model, compose the top graph, and analyze every corner — then, unless
// -flat=false, flatten the same chip and report per-corner WNS/TNS deltas,
// per-endpoint recovery accuracy against the model-error bound, and the
// composed-vs-flat speedup.
package main

import (
	"flag"
	"fmt"
	"os"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/hier"
	"insta/internal/obs"
)

func main() {
	chip := flag.String("chip", "chip-4x", "stitched chip preset (chip-2x, chip-4x, chip-16x)")
	topK := flag.Int("topk", 16, "Top-K entries per pin (extraction and analysis)")
	flat := flag.Bool("flat", true, "also run the flattened chip and report deltas")
	co := cmdutil.CornersFlag()
	sf := cmdutil.SchedFlags()
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-hier")

	opt := sf.Options()
	opt.TopK = *topK
	opt.Tracer = tr

	spec, err := bench.ChipSpecByName(*chip)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var scns []batch.Scenario
	if co.Enabled() {
		if scns, err = co.Scenarios(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	boot := func(name string) (*core.State, error) {
		bspec, err := bench.ChipBlockSpec(name)
		if err != nil {
			return nil, err
		}
		bt, err := sn.BootPreset(bspec, tr)
		if err != nil {
			return nil, err
		}
		return bt.State, nil
	}
	run, err := hier.BuildChip(spec, boot, scns, opt, sn.Cache())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d instances, %d wires — models: %d extracted (%.1f ms), %d cached\n",
		spec.Name, len(spec.Blocks), len(spec.Wires),
		run.Extracted, float64(run.ExtractNs)/1e6, run.CacheHits)

	var cmp *hier.Compare
	if *flat {
		if cmp, err = run.CompareFlat(opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("flat %d pins vs composed top %d pins\n\n", cmp.FlatPins, cmp.TopPins)
		fmt.Printf("%-10s %12s %12s %12s %12s %12s %12s %10s %10s\n",
			"corner", "flatWNS", "hierWNS", "recWNS", "flatTNS", "recTNS", "maxΔslack", "q99Δ", "bound")
		for _, s := range cmp.Scen {
			fmt.Printf("%-10s %12.2f %12.2f %12.2f %12.1f %12.1f %12.4g %10.4g %10.4g\n",
				s.Name, s.FlatWNS, s.HierWNS, s.RecWNS, s.FlatTNS, s.RecTNS,
				s.Deltas.Max, s.Deltas.Q99, s.Bound)
		}
		speedup := float64(cmp.FlatNs) / float64(cmp.AnalyzeNs)
		fmt.Printf("\nflat %.1f ms, hier analyze %.2f ms (%.0fx), recovery %.1f ms\n",
			float64(cmp.FlatNs)/1e6, float64(cmp.AnalyzeNs)/1e6, speedup,
			float64(cmp.RecoverNs)/1e6)
	} else {
		a, err := hier.Analyze(run.Chip, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer a.Close()
		fmt.Printf("%-10s %12s %12s\n", "corner", "hierWNS", "hierTNS")
		for _, sr := range a.Scen {
			fmt.Printf("%-10s %12.2f %12.1f\n", sr.Scenario.Name, sr.WNS, sr.TNS)
		}
	}

	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = spec.Name
		m.TopK, m.Workers = *topK, sf.Workers
		m.AddExtra("hier_chip", spec.Name)
		m.AddExtra("hier_instances", len(spec.Blocks))
		m.AddExtra("hier_cache_hits", run.CacheHits)
		m.AddExtra("hier_cache_misses", run.CacheMisses)
		m.AddExtra("hier_extract_ms", float64(run.ExtractNs)/1e6)
		if cmp != nil {
			m.AddExtra("hier_analyze_ms", float64(cmp.AnalyzeNs)/1e6)
			m.AddExtra("hier_flat_ms", float64(cmp.FlatNs)/1e6)
			m.AddExtra("hier_recover_ms", float64(cmp.RecoverNs)/1e6)
			if cmp.AnalyzeNs > 0 {
				m.AddExtra("hier_speedup", float64(cmp.FlatNs)/float64(cmp.AnalyzeNs))
			}
			if len(cmp.Scen) > 0 {
				m.WNSAfter, m.TNSAfter = cmp.Scen[0].FlatWNS, cmp.Scen[0].FlatTNS
			}
		}
	})
}
