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
	"strconv"
	"strings"

	"insta/internal/bench"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/obs"
	"insta/internal/server"
)

func main() {
	block := flag.String("block", "block-2", "block preset (the paper uses block-2)")
	n := flag.Int("n", 30, "sizing iterations")
	batch := flag.Int("batch", 120, "cells resized per iteration")
	topK := flag.Int("topk", 32, "INSTA Top-K")
	ops := flag.String("ops", "", "structural-ECO ablation: comma-separated ops "+
		"(buffer:ARC[:CELL[:FRAC]] | unbuffer:ARC | repower:CELL:LIB | move:CELL:X:Y), "+
		"each previewed in one topo-session batch, then committed together")
	sf := cmdutil.SchedFlags()
	sn := cmdutil.SnapFlags()
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
	if c := sn.Cache(); c != nil {
		exp.UseSnapshots(c)
	}
	defer ob.Finish(func(m *obs.Manifest) {
		m.Design = spec.Name
		m.TopK, m.Workers = *topK, sf.Workers
		m.AddExtra("iterations", *n)
		m.AddExtra("batch", *batch)
		if *ops != "" {
			m.AddExtra("ops", *ops)
		}
	})
	if *ops != "" {
		if err := runOps(spec, opt, *ops); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	f7, f8, err := exp.Incremental(spec, *n, *batch, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exp.PrintFig7(os.Stdout, f7)
	fmt.Println()
	exp.PrintFig8(os.Stdout, f8)
}

// parseOp turns one colon-separated spec into a server TopoOp.
func parseOp(spec string) (server.TopoOp, error) {
	f := strings.Split(spec, ":")
	bad := func() (server.TopoOp, error) {
		return server.TopoOp{}, fmt.Errorf("insta-incremental: bad op %q", spec)
	}
	switch f[0] {
	case "buffer":
		if len(f) < 2 || len(f) > 4 {
			return bad()
		}
		arc, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return bad()
		}
		op := server.TopoOp{Op: "buffer", Arc: int32(arc)}
		if len(f) >= 3 {
			op.Lib = f[2]
		}
		if len(f) == 4 {
			if op.Frac, err = strconv.ParseFloat(f[3], 64); err != nil {
				return bad()
			}
		}
		return op, nil
	case "unbuffer":
		if len(f) != 2 {
			return bad()
		}
		arc, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return bad()
		}
		return server.TopoOp{Op: "unbuffer", Arc: int32(arc)}, nil
	case "repower":
		if len(f) != 3 {
			return bad()
		}
		return server.TopoOp{Op: "repower", Cell: f[1], Lib: f[2]}, nil
	case "move":
		if len(f) != 4 {
			return bad()
		}
		x, errX := strconv.ParseFloat(f[2], 64)
		y, errY := strconv.ParseFloat(f[3], 64)
		if errX != nil || errY != nil {
			return bad()
		}
		return server.TopoOp{Op: "move", Cell: f[1], X: x, Y: y}, nil
	}
	return bad()
}

// runOps is the structural-ECO ablation path: each -ops entry is previewed as
// its own single-op topo-session batch (separate batches keep two edits of
// one net from claiming the same driver arcs), printed, and the whole session
// committed at the end — one engine swap, zero rebuilds.
func runOps(spec bench.Spec, opt core.Options, opsArg string) error {
	s, err := exp.Build(spec)
	if err != nil {
		return err
	}
	e, err := core.NewEngineFromState(s.State, opt)
	if err != nil {
		return err
	}
	mgr := server.NewManager(e, s.Ref, server.Options{MaxSessions: 1})
	defer mgr.Close()
	sess, err := mgr.Create()
	if err != nil {
		return err
	}
	defer sess.Close()

	fmt.Printf("structural-ECO ablation on %s (base WNS=%.2f TNS=%.2f, %d arcs)\n",
		spec.Name, mgr.BaseWNS(), mgr.BaseTNS(), e.NumArcs())
	fmt.Printf("%-28s %10s %14s %8s %8s %9s\n",
		"op", "WNS(ps)", "TNS(ps)", "levels", "region", "new arcs")
	for _, one := range strings.Split(opsArg, ",") {
		op, err := parseOp(strings.TrimSpace(one))
		if err != nil {
			return err
		}
		res, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{op}})
		if err != nil {
			return fmt.Errorf("insta-incremental: op %q: %w", one, err)
		}
		newArcs := ""
		if res.NewArcs[1] > res.NewArcs[0] {
			newArcs = fmt.Sprintf("[%d,%d)", res.NewArcs[0], res.NewArcs[1])
		}
		fmt.Printf("%-28s %10.2f %14.2f %8d %8d %9s\n",
			one, res.View.WNS, res.View.TNS, res.RelevelLevels, res.RelevelRegion, newArcs)
	}
	view, err := sess.Commit()
	if err != nil {
		return fmt.Errorf("insta-incremental: commit: %w", err)
	}
	fmt.Printf("committed: WNS=%.2f TNS=%.2f (epoch %d, %d arcs)\n",
		view.WNS, view.TNS, mgr.Epoch(), mgr.Engine().NumArcs())
	return nil
}
