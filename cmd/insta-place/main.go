// Command insta-place regenerates Table III (INSTA-Place vs plain DREAMPlace
// and DP4.0-style net weighting on the superblue-like suite, post
// legalization) and Figure 9 (timing-update iteration runtime breakdown).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/exp"
	"insta/internal/obs"
)

func main() {
	designs := flag.String("designs", strings.Join(bench.SuperblueNames(), ","), "comma-separated superblue presets")
	iters := flag.Int("iters", 0, "placement iterations (0 = mode default)")
	fig9 := flag.Bool("fig9", true, "also run the Figure 9 breakdown")
	fig9Design := flag.String("fig9-design", "superblue10", "benchmark for Figure 9")
	sf := cmdutil.SchedFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()

	opt := sf.Options()
	opt.Tracer = ob.Setup("insta-place")
	defer ob.Finish(func(m *obs.Manifest) {
		m.Workers = sf.Workers
		m.AddExtra("designs", *designs)
	})
	if _, err := exp.TableIII(os.Stdout, strings.Split(*designs, ","), *iters, opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *fig9 {
		fmt.Println()
		if _, err := exp.Fig9(os.Stdout, *fig9Design, *iters, opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
