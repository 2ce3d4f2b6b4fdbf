// Command insta-incremental regenerates Figure 7 (incremental STA runtime
// per sizing iteration across an in-house full engine, the reference
// incremental engine, and INSTA with estimate_eco re-annotation) and
// Figure 8 (INSTA correlation before/after the flow without
// re-synchronization).
package main

import (
	"flag"
	"fmt"
	"os"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/exp"
	"insta/internal/obs"
)

func main() {
	block := flag.String("block", "block-2", "block preset (the paper uses block-2)")
	n := flag.Int("n", 30, "sizing iterations")
	batch := flag.Int("batch", 120, "cells resized per iteration")
	topK := flag.Int("topk", 32, "INSTA Top-K")
	sf := cmdutil.SchedFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()

	spec, err := bench.BlockSpec(*block)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt := sf.Options()
	opt.TopK = *topK
	opt.Tracer = ob.Setup("insta-incremental")
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = spec.Name
		m.TopK, m.Workers = *topK, sf.Workers
		m.AddExtra("iterations", *n)
		m.AddExtra("batch", *batch)
	})
	f7, f8, err := exp.Incremental(spec, *n, *batch, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exp.PrintFig7(os.Stdout, f7)
	fmt.Println()
	exp.PrintFig8(os.Stdout, f8)
}
