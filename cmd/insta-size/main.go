// Command insta-size regenerates Table II: INSTA-Size (gradient-ranked
// sizing with estimate_eco) against the reference-tool-style slack-driven
// baseline on the IWLS-like suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/obs"
	"insta/internal/server"
	"insta/internal/sizing"
)

func main() {
	designs := flag.String("designs", strings.Join(bench.IWLSNames(), ","), "comma-separated IWLS presets")
	topK := flag.Int("topk", 4, "INSTA Top-K during sizing evaluation")
	buffer := flag.Bool("buffer", false, "run INSTA-Buffer (structural-session buffer insertion) instead of the sizing table")
	bufMax := flag.Int("buffer-max", 40, "with -buffer: insertion budget")
	bufCell := flag.String("buffer-cell", "BUF_X4", "with -buffer: buffer library cell")
	sf := cmdutil.SchedFlags()
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()

	opt := sf.Options()
	opt.TopK = *topK
	opt.Tracer = ob.Setup("insta-size")
	if c := sn.Cache(); c != nil {
		exp.UseSnapshots(c)
	}
	defer ob.Finish(func(m *obs.Manifest) {
		m.TopK, m.Workers = *topK, sf.Workers
		m.AddExtra("designs", *designs)
		if *buffer {
			m.AddExtra("mode", "buffer")
		}
	})
	if *buffer {
		if err := runBuffer(strings.Split(*designs, ","), opt, *bufMax, *bufCell); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if _, err := exp.TableII(os.Stdout, strings.Split(*designs, ","), opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runBuffer drives the gradient-guided buffering flow end-to-end through the
// serving layer's structural sessions: every insertion is previewed in a topo
// session (localized re-levelization + cone re-propagation) and committed by
// an engine swap, never a rebuild.
func runBuffer(names []string, opt core.Options, budget int, cell string) error {
	fmt.Printf("INSTA-Buffer: structural-session buffer insertion\n")
	fmt.Printf("%-12s %10s %14s %14s %9s %9s %10s\n",
		"design", "WNS(ps)", "TNS before", "TNS after", "inserted", "previewed", "runtime")
	for _, name := range names {
		spec, err := bench.IWLSSpec(name)
		if err != nil {
			return err
		}
		s, err := exp.Build(spec)
		if err != nil {
			return fmt.Errorf("insta-size: %s: %w", name, err)
		}
		e, err := core.NewEngineFromState(s.State, opt)
		if err != nil {
			return fmt.Errorf("insta-size: %s: %w", name, err)
		}
		mgr := server.NewManager(e, s.Ref, server.Options{MaxSessions: 2})
		before := mgr.BaseTNS()
		cfg := sizing.DefaultBufferConfig()
		cfg.MaxBuffers = budget
		cfg.BufCell = cell
		res := sizing.InstaBuffer(mgr, cfg)
		mgr.Close()
		fmt.Printf("%-12s %10.2f %14.2f %14.2f %9d %9d %10s\n",
			name, res.WNS, before, res.TNS, res.Inserted, res.Previewed, res.Runtime.Round(time.Microsecond))
	}
	return nil
}
