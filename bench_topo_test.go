// Structural-ECO regression harness: TestTopoBenchRegression measures one
// topo-session edit batch (buffer insertions + an annotation, localized
// re-levelization + seeded cone re-propagation) against the cold alternative
// (core.Compile of the edited tables + a fresh engine + full propagation) on
// block-1, pins the two bit-identical, and writes BENCH_topo.json at the repo
// root. The bit-identity check is unconditional; the speedup gate — the
// tentpole claim that an incremental structural edit beats a rebuild by an
// order of magnitude — is armed by INSTA_TOPO_GATE=1 (ci.sh), with only a
// loose noise guard otherwise so ad-hoc runs on loaded machines stay green.
package insta

import (
	"os"
	"runtime"
	"testing"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/num"
	"insta/internal/topo"
)

type topoBenchReport struct {
	NumCPU        int     `json:"numcpu"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Preset        string  `json:"preset"`
	Arcs          int     `json:"arcs"`
	EditOps       int     `json:"edit_ops"`
	IncrementalNs int64   `json:"incremental_ns"`
	ColdNs        int64   `json:"cold_ns"`
	Speedup       float64 `json:"speedup"`
	RelevelLevels int     `json:"relevel_levels"`
	RelevelRegion int     `json:"relevel_region"`
}

func TestTopoBenchRegression(t *testing.T) {
	const preset = "block-1"
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exp.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{TopK: 8, Workers: 4}
	e, err := core.NewEngineFromState(s.State, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	if e.HoldEnabled() {
		e.EvalHoldSlacks()
	}

	// The edit batch: buffers spliced into two distinct net arcs plus one
	// cell-arc re-annotation — the shape one optimizer step produces. The
	// targets are drawn from the deeper half of the level schedule, where
	// endpoint-driven sizing candidates actually live; an edit at the design
	// input boundary would re-level (correctly, but unrepresentatively) the
	// entire downstream quarter of the design.
	deep := func(kind uint8, frac float64) int32 {
		want := int32(float64(s.State.NumLevels) * frac)
		best, bestLv := int32(-1), int32(-1)
		for i := range s.Tab.Arcs {
			isNet := s.Tab.Arcs[i].Kind == 1
			if isNet != (kind == 1) {
				continue
			}
			lv := s.State.LvLevel[s.Tab.Arcs[i].To]
			if lv <= want && lv > bestLv {
				best, bestLv = int32(i), lv
			}
		}
		return best
	}
	netA, netB, cellArc := deep(1, 0.60), deep(1, 0.75), deep(0, 0.70)
	if netA < 0 || netB < 0 || netA == netB || cellArc < 0 {
		t.Fatalf("no suitable edit targets (net %d/%d, cell %d)", netA, netB, cellArc)
	}
	bufD := [2]num.Dist{{Mean: 5, Std: 0.5}, {Mean: 5.25, Std: 0.5}}
	annD := [2]num.Dist{e.ArcDelay(cellArc, 0), e.ArcDelay(cellArc, 1)}
	annD[0].Mean *= 1.05
	annD[1].Mean *= 1.05
	ops := []topo.Op{
		topo.InsertBuffer(netA, -1, bufD, 0.5),
		topo.InsertBuffer(netB, -1, bufD, 0.4),
		topo.Annotate(cellArc, annD),
	}

	sess, err := topo.NewSession(e)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Correctness first, unconditionally: the incremental working engine must
	// be bit-identical to a cold compile + full propagation of the edited
	// tables.
	res, err := sess.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	editedTab := res.Tables
	report := topoBenchReport{
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Preset:        preset,
		Arcs:          e.NumArcs(),
		EditOps:       len(ops),
		RelevelLevels: sess.Stats().Relevel.LevelsSpan,
		RelevelRegion: sess.Stats().Relevel.Region,
	}
	coldEval := func() *core.Engine {
		st, err := core.Compile(editedTab)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := core.NewEngineFromState(st, opt)
		if err != nil {
			t.Fatal(err)
		}
		ce.Run()
		if ce.HoldEnabled() {
			ce.EvalHoldSlacks()
		}
		return ce
	}
	want := coldEval()
	gs, ws := sess.Engine().Slacks(), want.Slacks()
	if len(gs) != len(ws) {
		t.Fatalf("incremental %d endpoints != cold %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("ep %d: incremental slack %v != cold %v", i, gs[i], ws[i])
		}
	}
	if sess.Engine().WNS() != want.WNS() || sess.Engine().TNS() != want.TNS() {
		t.Fatalf("WNS/TNS %v/%v != cold %v/%v",
			sess.Engine().WNS(), sess.Engine().TNS(), want.WNS(), want.TNS())
	}
	want.Close()
	sess.Reset()

	// Timing: steady-state previews — successive Apply batches on a warmed
	// session, the shape an optimizer loop produces (InstaBuffer previews
	// hundreds of candidates against one session). The first Apply after a
	// reset pays a one-time seeded tensor allocation and is warmed out of the
	// loop; every timed Apply is then edit + patched recompile + in-place
	// reseed, against the cold alternative of compiling and fully propagating
	// the edited netlist from scratch. Each timed Apply splices fresh buffers
	// (arc ids stay valid — insert-only batches never renumber), so the
	// session keeps growing exactly as a real optimizer's would.
	if _, err := sess.Apply(ops); err != nil {
		t.Fatal(err)
	}
	report.IncrementalNs, report.ColdNs = pairedMinNs(7,
		func() {
			if _, err := sess.Apply(ops); err != nil {
				t.Fatal(err)
			}
		},
		func() { coldEval().Close() },
	)
	report.Speedup = float64(report.ColdNs) / float64(report.IncrementalNs)
	t.Logf("%s: incremental %.2fms vs cold %.2fms — %.1fx (relevel %d levels, region %d of %d arcs)",
		preset, float64(report.IncrementalNs)/1e6, float64(report.ColdNs)/1e6,
		report.Speedup, report.RelevelLevels, report.RelevelRegion, report.Arcs)

	// INSTA_TOPO_GATE=1 (ci.sh) arms the tentpole claim; ad-hoc runs only
	// catch a collapse to parity.
	limit := 2.0
	if os.Getenv("INSTA_TOPO_GATE") == "1" {
		limit = 10.0
	}
	if report.Speedup < limit {
		t.Errorf("incremental structural edit only %.1fx faster than cold rebuild (limit %.0fx)",
			report.Speedup, limit)
	}

	writeBenchJSON(t, "BENCH_topo.json", &report)
}
