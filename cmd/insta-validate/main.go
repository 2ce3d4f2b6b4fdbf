// Command insta-validate brute-force-checks the POCV statistical model:
// Monte Carlo sampling of the extracted arc delay distributions against the
// analytic corner arrivals INSTA propagates (see internal/mc). Run it on any
// design preset to quantify the POCV approximation error commercial signoff
// accepts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"insta/internal/cmdutil"
	"insta/internal/exp"
	"insta/internal/mc"
	"insta/internal/obs"
)

func main() {
	designs := flag.String("designs", "block-5,block-2", "comma-separated presets")
	samples := flag.Int("samples", 500, "Monte Carlo trials")
	seed := flag.Int64("seed", 1, "sampling seed")
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-validate")
	defer ob.Finish(func(m *obs.Manifest) {
		m.AddExtra("designs", *designs)
		m.AddExtra("samples", *samples)
	})

	fmt.Printf("POCV validation: empirical 3-sigma quantile vs analytic corner (%d samples)\n", *samples)
	fmt.Printf("%-12s %10s %12s %22s %12s\n", "design", "#eps", "corr", "rel err (avg, wst)", "bias(ps)")
	for _, name := range strings.Split(*designs, ",") {
		spec, err := cmdutil.SpecByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dsp := tr.Start("validate-" + name)
		s, err := exp.Build(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := mc.ValidatePOCV(s.Tab, *samples, *seed)
		dsp.End()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-12s %10d %12.6f       (%.4f, %.4f) %12.2f\n",
			name, res.Endpoints, res.Corr, res.RelErr.Avg, res.RelErr.Worst, res.Bias)
	}
}
