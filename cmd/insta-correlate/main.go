// Command insta-correlate regenerates the paper's correlation study:
// Table I (five blocks, TopK=32) and Figure 6 (TopK=1 vs TopK=128 on
// block-1), printing the same rows the paper reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/hier"
	"insta/internal/obs"
)

func main() {
	topK := flag.Int("topk", 32, "Top-K entries per pin for Table I")
	fig6 := flag.Bool("fig6", true, "also run the Figure 6 Top-K trade-off")
	fig6Block := flag.String("fig6-block", "block-1", "block used for Figure 6")
	fig6Ks := flag.String("fig6-ks", "1,128", "comma-separated Top-K values for Figure 6")
	scatterPath := flag.String("scatter", "", "optional CSV path for the Figure 6 scatter data")
	blocks := flag.String("blocks", strings.Join(bench.BlockNames(), ","), "comma-separated block presets")
	hierChip := flag.String("hier", "",
		"also correlate hierarchical against flat analysis over this stitched chip preset (chip-2x, chip-4x, chip-16x)")
	sf := cmdutil.SchedFlags()
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()

	opt := sf.Options()
	opt.TopK = *topK
	tr := ob.Setup("insta-correlate")
	opt.Tracer = tr
	if c := sn.Cache(); c != nil {
		exp.UseSnapshots(c)
	}
	var hierRun *hier.ChipRun
	var hierCmp *hier.Compare
	defer ob.Finish(func(m *obs.Manifest) {
		m.TopK, m.Workers = *topK, sf.Workers
		m.AddExtra("blocks", *blocks)
		if hierRun != nil {
			m.AddExtra("hier_chip", *hierChip)
			m.AddExtra("hier_cache_hits", hierRun.CacheHits)
			m.AddExtra("hier_cache_misses", hierRun.CacheMisses)
			m.AddExtra("hier_extract_ms", float64(hierRun.ExtractNs)/1e6)
		}
		if hierCmp != nil {
			m.AddExtra("hier_analyze_ms", float64(hierCmp.AnalyzeNs)/1e6)
			m.AddExtra("hier_flat_ms", float64(hierCmp.FlatNs)/1e6)
			m.AddExtra("hier_recover_ms", float64(hierCmp.RecoverNs)/1e6)
			for _, s := range hierCmp.Scen {
				m.AddExtra("hier_max_delta_"+s.Name, s.Deltas.Max)
			}
		}
	})
	names := strings.Split(*blocks, ",")
	if _, err := exp.TableI(os.Stdout, names, opt); err != nil {
		fmt.Fprintln(os.Stderr, "table I:", err)
		os.Exit(1)
	}
	if *hierChip != "" {
		spec, err := bench.ChipSpecByName(*hierChip)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hier:", err)
			os.Exit(1)
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
		if hierRun, err = hier.BuildChip(spec, boot, nil, opt, sn.Cache()); err != nil {
			fmt.Fprintln(os.Stderr, "hier:", err)
			os.Exit(1)
		}
		if hierCmp, err = hierRun.CompareFlat(opt); err != nil {
			fmt.Fprintln(os.Stderr, "hier:", err)
			os.Exit(1)
		}
		fmt.Printf("\nHierarchical vs flat (%s: %d instances, flat %d pins, top %d pins)\n",
			spec.Name, len(spec.Blocks), hierCmp.FlatPins, hierCmp.TopPins)
		fmt.Printf("%-10s %10s %12s %12s %12s %12s %12s %9s %10s\n",
			"corner", "endpoints", "maxΔ", "meanΔ", "q50Δ", "q95Δ", "q99Δ", "disagree", "bound")
		for _, s := range hierCmp.Scen {
			d := s.Deltas
			fmt.Printf("%-10s %10d %12.4g %12.4g %12.4g %12.4g %12.4g %9d %10.4g\n",
				s.Name, d.N, d.Max, d.Mean, d.Q50, d.Q95, d.Q99, d.Disagree, s.Bound)
		}
		fmt.Printf("extract %.1f ms, hier analyze %.2f ms, flat %.1f ms (%.0fx), recovery %.1f ms\n",
			float64(hierRun.ExtractNs)/1e6, float64(hierCmp.AnalyzeNs)/1e6,
			float64(hierCmp.FlatNs)/1e6, float64(hierCmp.FlatNs)/float64(hierCmp.AnalyzeNs),
			float64(hierCmp.RecoverNs)/1e6)
	}
	if !*fig6 {
		return
	}
	var ks []int
	for _, f := range strings.Split(*fig6Ks, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad -fig6-ks:", err)
			os.Exit(1)
		}
		ks = append(ks, v)
	}
	var scatter io.Writer
	if *scatterPath != "" {
		f, err := os.Create(*scatterPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scatter:", err)
			os.Exit(1)
		}
		defer f.Close()
		scatter = f
	}
	fmt.Println()
	if _, err := exp.Fig6(os.Stdout, *fig6Block, ks, opt, scatter); err != nil {
		fmt.Fprintln(os.Stderr, "figure 6:", err)
		os.Exit(1)
	}
}
