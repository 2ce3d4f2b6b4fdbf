// Warm-start bench regression harness: TestSnapBenchRegression times booting
// the engine from a content-addressed snapshot (internal/snap) against the
// cold path it replaces — parse design.lib/.v/.sdc/.spef, run the reference
// signoff engine, extract the CircuitOps tables, compile — on the largest
// block preset, and writes BENCH_snap.json at the repo root. The snapshot
// decode is a CRC check plus one memcpy per slab, so the warm/cold ratio is
// structural, not a parallelism artifact, and snap.Open is GATED at >= 10x
// faster than the cold build (the PR 5 acceptance bar). The full warm engine
// boot (decode + engine restore) is recorded ungated as a diagnostic, and the
// harness asserts the warm engine reproduces the cold WNS/TNS bit-exactly.
package insta

import (
	"os"
	"runtime"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/cmdutil"
	"insta/internal/core"
	"insta/internal/refsta"
	"insta/internal/snap"
)

type snapBenchReport struct {
	NumCPU     int    `json:"numcpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Preset     string `json:"preset"`
	Pins       int    `json:"pins"`
	Arcs       int    `json:"arcs"`

	SnapshotBytes int64 `json:"snapshot_bytes"`

	// Cold: LoadDir + refsta + Extract + Compile. Warm: snap.Open. The gate
	// is on this pair; WarmEngineNs adds NewEngineFromState on top.
	ColdBuildNs  int64   `json:"cold_build_ns"`
	WarmOpenNs   int64   `json:"warm_open_ns"`
	Speedup      float64 `json:"speedup"`
	WarmEngineNs int64   `json:"warm_engine_ns"`
}

func TestSnapBenchRegression(t *testing.T) {
	const preset = "block-1"
	spec, err := bench.BlockSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := cmdutil.GenerateDir(dir, spec); err != nil {
		t.Fatal(err)
	}

	// Seed the cache exactly as the tools do: one cold boot with write-back.
	sn := &cmdutil.Snap{Dir: t.TempDir()}
	seed, err := sn.BootDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Warm {
		t.Fatal("first boot cannot be warm")
	}
	path := seed.Cache.Path(seed.Key)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("write-back missing: %v", err)
	}

	var (
		coldState *core.State
		warmSnap  *snap.Snapshot
	)
	coldBuild := func() {
		b, err := cmdutil.LoadDir(dir, "")
		if err != nil {
			t.Error(err)
			return
		}
		ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		if coldState, err = core.Compile(circuitops.Extract(ref)); err != nil {
			t.Error(err)
		}
	}
	warmOpen := func() {
		var err error
		if warmSnap, err = snap.Open(path); err != nil {
			t.Error(err)
		}
	}
	warmNs, coldNs := pairedMinNs(5, warmOpen, coldBuild)
	if t.Failed() {
		t.FailNow()
	}

	// Full warm engine boot, and the bit-identity check that makes the
	// speedup trustworthy: same slabs, same numbers.
	opt := core.Options{TopK: 8, Workers: runtime.NumCPU()}
	var warmEngineNs int64
	{
		we, ce := mustEngine(t, warmSnap.State, opt), mustEngine(t, coldState, opt)
		we.Run()
		ce.Run()
		if we.WNS() != ce.WNS() || we.TNS() != ce.TNS() {
			t.Fatalf("warm boot diverged: warm WNS/TNS %v/%v, cold %v/%v",
				we.WNS(), we.TNS(), ce.WNS(), ce.TNS())
		}
		we.Close()
		ce.Close()
		warmEngineNs, _ = pairedMinNs(3, func() {
			s, err := snap.Open(path)
			if err != nil {
				t.Error(err)
				return
			}
			e, err := core.NewEngineFromState(s.State, opt)
			if err != nil {
				t.Error(err)
				return
			}
			e.Close()
		}, func() {})
	}

	rep := snapBenchReport{
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Preset:        preset,
		Pins:          seed.State.NumPins,
		Arcs:          len(seed.State.ArcKind),
		SnapshotBytes: info.Size(),
		ColdBuildNs:   coldNs,
		WarmOpenNs:    warmNs,
		Speedup:       float64(coldNs) / float64(warmNs),
		WarmEngineNs:  warmEngineNs,
	}
	writeBenchJSON(t, "BENCH_snap.json", rep)
	t.Logf("%s: cold build %.1fms, warm open %.3fms (%.0fx), warm engine %.1fms, snapshot %.1f MB",
		preset, float64(coldNs)/1e6, float64(warmNs)/1e6, rep.Speedup,
		float64(warmEngineNs)/1e6, float64(info.Size())/1e6)

	// The acceptance gate: booting from a snapshot must beat re-deriving the
	// state from sources by an order of magnitude.
	if rep.Speedup < 10 {
		t.Fatalf("warm start regression: snap.Open only %.1fx faster than cold build (gate: 10x)", rep.Speedup)
	}
}

func mustEngine(t *testing.T, st *core.State, opt core.Options) *core.Engine {
	t.Helper()
	e, err := core.NewEngineFromState(st, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
