// Command insta-paper regenerates the paper's artifacts under results/:
//
//	go run ./cmd/insta-paper [name ...]
//
// rewrites results/<name>.txt for each named artifact, or all of them when
// none is named. Each artifact's configuration is fixed here, so the first
// line of every file (the command that made it, with the Go version, GOARCH
// and CPU count its timed figures were measured on) is all it takes to make
// it again. The flags are the ones every tool shares: -workers, -trace,
// -manifest and -log-level. Run it from the repo root.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/mc"
	"insta/internal/obs"
)

// artifact renders one results/<name>.txt, less its provenance line.
type artifact struct {
	name   string
	render func(w io.Writer, opt core.Options) error
}

// artifacts lists every file in the order a bare run makes them, each with the
// configuration its committed file was made with.
var artifacts = []artifact{
	{"table1_fig6", func(w io.Writer, opt core.Options) error {
		opt.TopK = 32
		if _, err := exp.TableI(w, bench.BlockNames(), opt); err != nil {
			return err
		}
		fmt.Fprintln(w)
		_, err := exp.Fig6(w, "block-1", []int{1, 8, 32, 128}, opt)
		return err
	}},
	{"fig7_fig8", func(w io.Writer, opt core.Options) error {
		spec, err := bench.BlockSpec("block-2")
		if err != nil {
			return err
		}
		opt.TopK = 32
		f7, f8, err := exp.Incremental(spec, 30, 120, opt)
		if err != nil {
			return err
		}
		exp.PrintFig7(w, f7)
		fmt.Fprintln(w)
		exp.PrintFig8(w, f8)
		return nil
	}},
	{"table2", func(w io.Writer, opt core.Options) error {
		opt.TopK = 4
		_, err := exp.TableII(w, bench.IWLSNames(), opt)
		return err
	}},
	{"table3_fig9", func(w io.Writer, opt core.Options) error {
		if _, err := exp.TableIII(w, bench.SuperblueNames(), 0, opt); err != nil {
			return err
		}
		fmt.Fprintln(w)
		_, err := exp.Fig9(w, "superblue10", 0, opt)
		return err
	}},
	{"pocv_validation", pocv},
}

// pocv brute-force-checks the POCV statistical model: Monte Carlo sampling of
// the extracted arc delay distributions against the analytic corner arrivals
// INSTA propagates (see internal/mc).
func pocv(w io.Writer, opt core.Options) error {
	const samples, seed = 500, 1
	fmt.Fprintf(w, "POCV validation: empirical 3-sigma quantile vs analytic corner (%d samples)\n", samples)
	fmt.Fprintf(w, "%-12s %10s %12s %22s %12s\n", "design", "#eps", "corr", "rel err (avg, wst)", "bias(ps)")
	for _, name := range []string{"block-5", "block-2"} {
		spec, err := bench.BlockSpec(name)
		if err != nil {
			return err
		}
		sp := opt.Tracer.Start("validate-" + name)
		s, err := exp.Build(spec)
		if err != nil {
			return err
		}
		res, err := mc.ValidatePOCV(s.Tab, samples, seed)
		sp.End()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10d %12.6f       (%.4f, %.4f) %12.2f\n",
			name, res.Endpoints, res.Corr, res.RelErr.Avg, res.RelErr.Worst, res.Bias)
	}
	return nil
}

func main() {
	sf := cmdutil.SchedFlags()
	ob := cmdutil.ObsFlags()
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: go run ./cmd/insta-paper [flags] [name ...]\nnames: %s\n", strings.Join(names(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	todo := artifacts
	if flag.NArg() > 0 {
		todo = nil
		for _, name := range flag.Args() {
			a, ok := lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "insta-paper: unknown artifact %q: want one of %s\n", name, strings.Join(names(), ", "))
				os.Exit(2)
			}
			todo = append(todo, a)
		}
	}
	opt := sf.Options()
	opt.Tracer = ob.Setup("insta-paper")
	done := make([]string, 0, len(todo))
	defer ob.Finish(func(m *obs.Manifest) {
		m.Workers = sf.Workers
		m.AddExtra("artifacts", strings.Join(done, ","))
	})
	for _, a := range todo {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# go run ./cmd/insta-paper -workers %d %s  (timed on %s %s, %d CPUs)\n",
			sf.Workers, a.name, runtime.Version(), runtime.GOARCH, runtime.NumCPU())
		if err := a.render(io.MultiWriter(os.Stdout, &buf), opt); err != nil {
			fmt.Fprintf(os.Stderr, "insta-paper: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		path := filepath.Join("results", a.name+".txt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "insta-paper:", err)
			os.Exit(1)
		}
		slog.Info("artifact written", "path", path)
		done = append(done, a.name)
		fmt.Println()
	}
}

func lookup(name string) (artifact, bool) {
	for _, a := range artifacts {
		if a.name == name {
			return a, true
		}
	}
	return artifact{}, false
}

func names() []string {
	out := make([]string, len(artifacts))
	for i, a := range artifacts {
		out[i] = a.name
	}
	return out
}
