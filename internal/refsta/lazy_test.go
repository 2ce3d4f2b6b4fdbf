package refsta_test

// New runs delay calculation only; the arrival lists and slacks are a cache
// its first reader builds, and incremental updates maintain them only once
// built. These tests hold the lazy engine to the eager one: whenever the
// first read happens, every stored value must come out as a fresh New on the
// final netlist would give it.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/refsta"
)

// tinySpec is a generated design small enough for every -short run.
var tinySpec = bench.Spec{
	Name: "lazy", Seed: 13, Tech: liberty.TechN3(),
	Groups: 2, FFsPerGroup: 8, Layers: 4, Width: 8,
	CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
	Period: 900, Uncertainty: 10, FalsePaths: 2, Multicycles: 1, Die: 80,
}

func generateSpec(t testing.TB, spec bench.Spec) func() *bench.Design {
	return func() *bench.Design {
		gen, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
}

func miniDesign(t testing.TB) func() *bench.Design {
	return func() *bench.Design {
		d, lib, con, par := refsta.MiniDesign(t)
		return &bench.Design{D: d, Lib: lib, Con: con, Par: par}
	}
}

func newEngine(t testing.TB, gen *bench.Design) *refsta.Engine {
	t.Helper()
	e, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// step is one netlist edit of a script: a resize, a move, or a placement
// change the caller pushes through RefreshNetParasitics the way the placer
// does.
type step struct {
	op   int // 0 resize, 1 MoveCell, 2 RefreshNetParasitics
	cell netlist.CellID
	lib  int32
	x, y float64
}

// script draws n edits over gen, cycling resize, move, refresh.
func script(gen *bench.Design, seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	resizes := bench.Changelist(gen, seed, n)
	var out []step
	for i := 0; i < n; i++ {
		c := netlist.CellID(rng.Intn(len(gen.D.Cells)))
		x, y := gen.D.Cells[c].X+rng.Float64()*20-10, gen.D.Cells[c].Y+rng.Float64()*20-10
		switch op := i % 3; {
		case op == 0 && i/3 < len(resizes):
			out = append(out, step{op: 0, cell: resizes[i/3].Cell, lib: resizes[i/3].NewLib})
		case op != 0:
			out = append(out, step{op: op, cell: c, x: x, y: y})
		}
	}
	return out
}

func (s step) apply(t testing.TB, e *refsta.Engine) {
	t.Helper()
	switch s.op {
	case 0:
		if _, err := e.ResizeCell(s.cell, s.lib); err != nil {
			t.Fatal(err)
		}
	case 1:
		if _, _, err := e.MoveCell(s.cell, s.x, s.y); err != nil {
			t.Fatal(err)
		}
	case 2:
		d := e.D
		d.Cells[s.cell].X, d.Cells[s.cell].Y = s.x, s.y
		var nets []netlist.NetID
		for _, p := range d.Cells[s.cell].Pins {
			if n := d.Pins[p].Net; n != netlist.NoNet {
				nets = append(nets, n)
			}
		}
		e.RefreshNetParasitics(nets)
	}
}

// read makes one arrival read: with hold wanted, the first read is
// EnableHoldAnalysis (the only way to turn hold on).
func read(e *refsta.Engine, hold bool) {
	if hold && !e.HoldEnabled() {
		e.EnableHoldAnalysis()
		return
	}
	e.EndpointSlacks()
}

// TestLazyMatchesEager runs one script of resizes, moves and parasitic
// refreshes, each followed by UpdateTimingIncremental, three times: reading
// arrivals never until the end, after every step, and once midway. The three
// engines' digests — every arc delay, slew, late and early list entry, setup
// and hold slack — must agree with each other and with a fresh New on the
// final netlist, read at once.
func TestLazyMatchesEager(t *testing.T) {
	type design struct {
		name  string
		gen   func() *bench.Design
		steps int
	}
	designs := []design{
		{"mini", miniDesign(t), 12},
		{"tiny", generateSpec(t, tinySpec), 24},
	}
	if !testing.Short() {
		spec, err := bench.BlockSpec("block-5")
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{"block-5", generateSpec(t, spec), 24})
	}
	for _, dz := range designs {
		steps := script(dz.gen(), 5, dz.steps)
		for _, hold := range []bool{false, true} {
			var final *bench.Design
			digests := map[string]uint64{}
			for _, sched := range []string{"never", "every", "midway"} {
				gen := dz.gen()
				e := newEngine(t, gen)
				for i, s := range steps {
					s.apply(t, e)
					e.UpdateTimingIncremental()
					if sched == "every" || (sched == "midway" && i == len(steps)/2) {
						read(e, hold)
					}
				}
				if sched == "never" {
					if e.ListsBuilt() {
						t.Errorf("%s hold=%v: lists built by %d incremental updates before any read", dz.name, hold, len(steps))
					}
					final = gen
				}
				read(e, hold)
				digests[sched] = engineDigest(e)
			}
			fresh := newEngine(t, final)
			read(fresh, hold)
			want := engineDigest(fresh)
			for sched, got := range digests {
				if got != want {
					t.Errorf("%s hold=%v, first read %s: digest %#016x, fresh New %#016x", dz.name, hold, sched, got, want)
				}
			}
		}
	}
}

// TestConcurrentFirstReads: eight goroutines make the first read at once;
// they must all see the serial answer, and the engine must sweep once.
func TestConcurrentFirstReads(t *testing.T) {
	want := newEngine(t, generateSpec(t, tinySpec)()).EndpointSlacks()
	e := newEngine(t, generateSpec(t, tinySpec)())
	const readers = 8
	got := make([][]float64, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = e.EndpointSlacks()
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		for j := range want {
			if g[j] != want[j] {
				t.Fatalf("reader %d, endpoint %d: %v, serial %v", i, j, g[j], want[j])
			}
		}
	}
	if n := e.ArrivalSweeps(); n != 1 {
		t.Errorf("%d concurrent first reads ran %d arrival sweeps, want 1", readers, n)
	}
}

// TestNewBuildsNoArrivals gates the cold path by counts, not time: New on
// block-5 allocates no list (a New that built them allocated 107.8 MB,
// nearly all of it lists), an incremental update before any read builds none,
// the first read builds them, and from UpdateTimingFull on they stay built — the
// reference columns of Table I and Figs. 7/8 keep timing the same work.
func TestNewBuildsNoArrivals(t *testing.T) {
	gen := generateBlock(t, "block-5")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := newEngine(t, gen)
	runtime.ReadMemStats(&after)
	const budget = 16 << 20
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > budget {
		t.Errorf("New on block-5 allocated %d bytes, budget %d", bytes, budget)
	}
	if e.ListsBuilt() {
		t.Fatal("New built the arrival lists")
	}
	rz := bench.Changelist(gen, 3, 2)
	if _, err := e.ResizeCell(rz[0].Cell, rz[0].NewLib); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	if e.ListsBuilt() || e.ArrivalSweeps() != 0 {
		t.Fatalf("a resize and an incremental update before any read built the lists (%d sweeps)", e.ArrivalSweeps())
	}
	e.EndpointSlacks()
	if !e.ListsBuilt() || e.ArrivalSweeps() != 1 {
		t.Fatalf("first EndpointSlacks: built %v after %d sweeps, want built after 1", e.ListsBuilt(), e.ArrivalSweeps())
	}
	e.UpdateTimingFull()
	if !e.ListsBuilt() || e.ArrivalSweeps() != 2 {
		t.Fatalf("UpdateTimingFull: built %v after %d sweeps, want built after 2", e.ListsBuilt(), e.ArrivalSweeps())
	}
	if _, err := e.ResizeCell(rz[1].Cell, rz[1].NewLib); err != nil {
		t.Fatal(err)
	}
	e.UpdateTimingIncremental()
	if !e.ListsBuilt() || e.ArrivalSweeps() != 2 {
		t.Errorf("incremental update after a full one: built %v after %d sweeps, want built, still 2", e.ListsBuilt(), e.ArrivalSweeps())
	}
}
