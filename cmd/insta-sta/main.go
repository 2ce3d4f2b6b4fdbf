// Command insta-sta is a standalone timing shell over the repository's file
// formats: it reads a structural Verilog netlist, an SDC constraint file and
// SPEF-style parasitics, runs the reference signoff engine and INSTA, and
// reports correlation plus the worst timing paths.
//
// With -gen it first materializes one of the built-in design presets to the
// three files, so a complete session is:
//
//	insta-sta -gen block-5 -dir /tmp/b5
//	insta-sta -dir /tmp/b5 -paths 3 -hold
//
// With -snapshot-dir the compiled timing state is cached content-addressed
// (internal/snap): the first run cold-builds and writes a snapshot keyed by
// the input file contents; later runs over unchanged inputs warm-start from
// it in milliseconds, skipping the parser and the reference engine (and with
// them the correlation and path-report sections, which need the reference).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/obs"
	"insta/internal/sched"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	gen := flag.String("gen", "", "generate a preset (block-*/IWLS/superblue name) into -dir and exit")
	dir := flag.String("dir", ".", "directory holding design.lib, design.v, design.sdc, design.spef")
	tech := flag.String("tech", "", "fallback library when design.lib is absent: n3 or asap7")
	topK := flag.Int("topk", 32, "INSTA Top-K")
	paths := flag.Int("paths", 3, "worst paths to report")
	hold := flag.Bool("hold", false, "also run hold analysis")
	profile := flag.Bool("profile", false, "print per-kernel scheduler telemetry")
	sf := cmdutil.SchedFlags()
	cf := cmdutil.CornersFlag()
	sn := cmdutil.SnapFlags()
	ob := cmdutil.ObsFlags()
	flag.Parse()
	tr := ob.Setup("insta-sta")
	man := &obs.Manifest{TopK: *topK, Workers: sf.Workers}
	defer ob.Finish(func(m *obs.Manifest) {
		man.Tool, man.StartedAt, man.WallMS, man.Phases = m.Tool, m.StartedAt, m.WallMS, m.Phases
		*m = *man
	})

	if *gen != "" {
		spec, err := cmdutil.SpecByName(*gen)
		if err != nil {
			fatalf("%v", err)
		}
		b, err := cmdutil.GenerateDir(*dir, spec)
		if err != nil {
			fatalf("generate: %v", err)
		}
		fmt.Printf("wrote design.lib, design.v, design.sdc, design.spef under %s (%d cells, %d pins; tech %s)\n",
			*dir, b.D.NumCells(), b.D.NumPins(), spec.Tech.Name)
		return
	}

	// Boot: warm from a -snapshot-dir cache hit (no parsing, no reference
	// engine), cold otherwise (parse, signoff, extract, compile, write-back).
	bt, err := sn.BootDir(*dir, *tech, tr)
	if err != nil {
		fatalf("load %s: %v", *dir, err)
	}
	man.Design = bt.Design
	bt.FillManifest(man)
	ref := bt.Ref // nil on warm boots
	if ref != nil {
		if *hold {
			ref.EnableHoldAnalysis()
		}
		fmt.Printf("%s: %d cells, %d pins, %d arcs, %d endpoints\n",
			bt.Design, bt.B.D.NumCells(), bt.B.D.NumPins(), ref.NumArcs(), len(ref.Endpoints()))
		fmt.Printf("reference: WNS %.2f ps, TNS %.2f ps, %d violations\n",
			ref.WNS(), ref.TNS(), ref.NumViolations())
	}

	// INSTA.
	opt := sf.Options()
	opt.TopK, opt.Hold = *topK, *hold
	opt.Tracer = tr
	e, err := core.NewEngineFromState(bt.State, opt)
	if err != nil {
		fatalf("insta: %v", err)
	}
	defer e.Close()
	if *profile {
		e.EnableKernelStats()
	}
	slacks := e.Run()
	man.Pins, man.Arcs, man.Endpoints, man.Levels = e.NumPins(), e.NumArcs(), len(e.Endpoints()), e.NumLevels()
	man.WNSAfter, man.TNSAfter = e.WNS(), e.TNS()
	if bt.Warm {
		fmt.Printf("%s: warm start from snapshot %.12s in %s (%d pins, %d arcs, %d endpoints)\n",
			bt.Design, bt.Key, bt.Load.Round(time.Microsecond), e.NumPins(), e.NumArcs(), len(e.Endpoints()))
		fmt.Printf("INSTA(K=%d): WNS %.2f ps, TNS %.2f ps\n", *topK, e.WNS(), e.TNS())
	} else {
		r, ms, n, dis, err := exp.Correlate(ref.EndpointSlacks(), slacks)
		if err != nil {
			fatalf("correlate: %v", err)
		}
		man.AddExtra("corr", r)
		fmt.Printf("INSTA(K=%d): WNS %.2f ps, TNS %.2f ps | corr %.6f over %d eps (mismatch avg %.2e, wst %.2f ps, %d disagree)\n",
			*topK, e.WNS(), e.TNS(), r, n, ms.Avg, ms.Worst, dis)
	}
	if *hold {
		e.EvalHoldSlacks()
		if ref != nil {
			fmt.Printf("hold: reference WNS %.2f / TNS %.2f ps | INSTA WNS %.2f / TNS %.2f ps\n",
				ref.HoldWNS(), ref.HoldTNS(), e.HoldWNS(), e.HoldTNS())
		} else {
			fmt.Printf("hold: INSTA WNS %.2f / TNS %.2f ps\n", e.HoldWNS(), e.HoldTNS())
		}
	}

	if cf.Enabled() {
		scns, err := cf.Scenarios()
		if err != nil {
			fatalf("corners: %v", err)
		}
		for _, s := range scns {
			man.Scenarios = append(man.Scenarios, s.Name)
		}
		reportCorners(bt.State, scns, opt, *hold)
	}

	if *profile {
		e.Backward() // include the backward kernel in the profile
		fmt.Printf("\nkernel profile (workers=%d grain=%d levels=%d):\n",
			sf.Workers, e.Pool().Grain(), e.NumLevels())
		sched.WriteTable(os.Stdout, e.KernelStats(), 3)
	}

	// The slack histogram and path report come from the reference engine, so
	// warm starts skip them (a warm boot has no reference engine by design).
	if ref != nil {
		psp := tr.Start("report")
		fmt.Println()
		ref.SlackHistogram(os.Stdout, 16)
		fmt.Println()
		ref.ReportTiming(os.Stdout, *paths)
		psp.End()
	}
}

// reportCorners runs an engine with one lane per scenario over the compiled
// state — one traversal for every corner, warm or cold — and prints
// per-corner and merged metrics plus the worst-corner-per-endpoint breakdown.
func reportCorners(st *core.State, scns []core.Scenario, opt core.Options, hold bool) {
	opt.Hold = hold
	e, err := core.NewEngineLanes(st, scns, opt)
	if err != nil {
		fatalf("corners: %v", err)
	}
	defer e.Close()
	e.Run()
	if hold {
		e.RefreshHoldSlacks()
	}

	v := e.Merged()
	fmt.Printf("\nmulti-corner (%d scenarios, one batched traversal, %.1f MB):\n",
		e.Lanes(), float64(e.MemoryBytes())/1e6)
	for s, scn := range scns {
		sl := e.LaneSlacks(s)
		line := fmt.Sprintf("  %-8s delay x%.2f sigma x%.2f rc x%.2f | WNS %8.2f ps, TNS %10.2f ps, %d violations",
			scn.Name, scn.DelayScale, scn.SigmaScale, scn.RCScale, core.WNS(sl), core.TNS(sl), core.Violations(sl))
		if hold {
			hs := e.LaneHoldSlacks(s)
			line += fmt.Sprintf(" | hold WNS %.2f TNS %.2f", core.WNS(hs), core.TNS(hs))
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-8s %-33s | WNS %8.2f ps, TNS %10.2f ps, %d violations\n",
		"merged", "worst corner per endpoint", v.WNS, v.TNS, v.Violations)

	// Which corner dominates: endpoints per worst corner, worst first.
	counts := map[string]int{}
	for _, w := range v.WorstOf {
		if w >= 0 {
			counts[scns[w].Name]++
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return counts[names[i]] > counts[names[j]] })
	fmt.Printf("  dominant corners:")
	for _, n := range names {
		fmt.Printf(" %s=%d eps", n, counts[n])
	}
	fmt.Println()
}
