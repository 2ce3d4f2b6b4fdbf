// Command insta-extract generates a design preset, runs the reference
// signoff engine, and dumps the CircuitOps-style initialization tables that
// INSTA consumes — the paper's one-time extraction step (Fig. 2) as a
// standalone artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/hier"
	"insta/internal/obs"
)

func main() {
	name := flag.String("design", "block-2", "block, IWLS or superblue preset name")
	out := flag.String("o", "", "output path (default stdout)")
	blockModel := flag.String("block-model", "",
		"also extract the design's interface timing model (internal/hier) and write it, as a snap container, to this path")
	modelTopK := flag.Int("model-topk", 16, "Top-K for -block-model extraction")
	co := cmdutil.CornersFlag()
	// Extraction itself is sequential; the flags are accepted so every tool
	// shares one CLI surface.
	sf := cmdutil.SchedFlags()
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-extract")

	spec, err := cmdutil.SpecByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Warm boots reconstruct the tables from the cached compiled state — the
	// serialization is a lossless inverse — without generating the design or
	// running the reference engine.
	bt, err := sn.BootPreset(spec, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tab := bt.Tables()
	var modelMS float64
	var modelHash string
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = spec.Name
		m.Pins, m.Arcs, m.Endpoints = tab.NumPins, len(tab.Arcs), len(tab.EPs)
		if bt.Ref != nil {
			m.WNSAfter, m.TNSAfter = bt.Ref.WNS(), bt.Ref.TNS()
		}
		if modelHash != "" {
			m.AddExtra("hier_model_hash", modelHash)
			m.AddExtra("hier_extract_ms", modelMS)
		}
		bt.FillManifest(m)
	})

	if *blockModel != "" {
		var scns []core.Scenario
		if co.Enabled() {
			if scns, err = co.Scenarios(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		opt := sf.Options()
		opt.TopK = *modelTopK
		opt.Tracer = tr
		msp := tr.Start("extract-model")
		t0 := time.Now()
		mdl, err := hier.Extract(bt.State, scns, opt)
		if err != nil {
			msp.End()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		modelMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		msp.End()
		modelHash = mdl.Hash
		buf := hier.ModelContainer(mdl)
		if err := os.WriteFile(*blockModel, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "block model %s: %d ins, %d outs, %d scenarios, hash %.12s → %s (%d bytes, %.1f ms)\n",
			spec.Name, len(mdl.Ins), len(mdl.Outs), len(mdl.Scen), mdl.Hash, *blockModel, len(buf), modelMS)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	wsp := tr.Start("write")
	if err := tab.Write(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wsp.End()
	if bt.Warm {
		fmt.Fprintf(os.Stderr, "extracted %s (warm, snapshot %.12s): %d pins, %d arcs, %d SPs, %d EPs\n",
			spec.Name, bt.Key, tab.NumPins, len(tab.Arcs), len(tab.SPs), len(tab.EPs))
	} else {
		fmt.Fprintf(os.Stderr, "extracted %s: %d pins, %d arcs, %d SPs, %d EPs, WNS=%.1f TNS=%.1f\n",
			spec.Name, tab.NumPins, len(tab.Arcs), len(tab.SPs), len(tab.EPs), bt.Ref.WNS(), bt.Ref.TNS())
	}
}
