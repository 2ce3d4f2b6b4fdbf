package topo

// Cross-commit golden digests of structural edits. The differential suite
// in topo_test.go compares a working engine against a cold compile of the
// test's own tables, so a change to what an op does to the tables moves both sides
// together and passes. This file pins what the ops mean: a fixed script of
// inserts, unbuffers and annotations runs on three seeds over a three-lane
// engine, and after every step every lane's setup and hold endpoint slacks are
// folded into one digest per seed.
//
// The script never holds an arc id across a step. It names an arc by its
// (From, To) pins — pin ids are append-only — and resolves the id against the
// working state when it builds the op, so it reads the same under any arc
// numbering. It only names arcs of the live netlist: the original arcs, the
// buffers it spliced in and has not removed, and the wires between them.
//
// A change to how topo stores, numbers or recompiles arcs must leave this file
// untouched and passing.

import (
	"math"
	"testing"

	"insta/internal/core"
	"insta/internal/num"
)

// goldenDigests holds, per topotest seed, the digest after goldenSteps steps.
var goldenDigests = map[int64]uint64{
	41: 0x21b464dff1d25679,
	42: 0x20f9ea438e3f109e,
	43: 0x95107c7288804ae1,
}

const goldenSteps = 48

// wire names an arc by its pins.
type wire struct{ from, to int32 }

// goldenBuf is one live script-inserted buffer: cell arc x→y.
type goldenBuf struct{ x, y int32 }

type goldenScript struct {
	t    *testing.T
	e    *core.Engine // the working engine
	rng  uint64
	nets []wire      // live positive-unate net arcs: insertion targets
	cell []wire      // the original cell arcs: annotation targets
	bufs []goldenBuf // live inserted buffers, oldest first

	pending int // buffers the batch being built has already claimed pins for

	inserted, removed, annotated int
}

// next is splitmix64.
func (g *goldenScript) next() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *goldenScript) intn(n int) int { return int(g.next() % uint64(n)) }

// unit is uniform in [0, 1).
func (g *goldenScript) unit() float64 { return float64(g.next()>>11) / (1 << 53) }

// arc resolves w to the first row of the working state that joins its pins.
func (g *goldenScript) arc(w wire, kind uint8) int32 {
	g.t.Helper()
	st := g.e.ExportState()
	for i := range st.ArcFrom {
		if st.ArcFrom[i] == w.from && st.ArcTo[i] == w.to && st.ArcKind[i] == kind {
			return int32(i)
		}
	}
	g.t.Fatalf("no kind-%d arc %d->%d in the working state", kind, w.from, w.to)
	return -1
}

// insertOp splices a buffer into live net n and updates the live netlist.
func (g *goldenScript) insertOp(n int) Op {
	w := g.nets[n]
	id := g.arc(w, 1)
	x := int32(g.e.NumPins()) + 2*int32(g.pending)
	g.pending++
	y := x + 1
	g.nets[n] = wire{w.from, x}
	g.nets = append(g.nets, wire{y, w.to})
	g.bufs = append(g.bufs, goldenBuf{x, y})
	g.inserted++
	frac := []float64{0, 0.3, 0.5, 0.75}[g.intn(4)]
	return InsertBuffer(id, -1, bufDelay(2+3*g.unit(), 0.1+0.2*g.unit()), frac)
}

// removeOp removes live buffer b: its input wire goes, its output wires move
// to the input wire's driver.
func (g *goldenScript) removeOp(b int) Op {
	buf := g.bufs[b]
	id := g.arc(wire{buf.x, buf.y}, 0)
	g.bufs = append(g.bufs[:b], g.bufs[b+1:]...)
	u := int32(-1)
	kept := g.nets[:0]
	for _, w := range g.nets {
		if w.to == buf.x {
			u = w.from
			continue
		}
		kept = append(kept, w)
	}
	g.nets = kept
	for i := range g.nets {
		if g.nets[i].from == buf.y {
			g.nets[i].from = u
		}
	}
	g.removed++
	return RemoveBuffer(id)
}

// scaled is arc id's current delay with every mean and sigma scaled by one
// factor in [0.8, 1.3).
func (g *goldenScript) scaled(id int32) [2]num.Dist {
	a := g.e.ExportState().Arc(id)
	f := 0.8 + 0.5*g.unit()
	g.annotated++
	return [2]num.Dist{
		{Mean: a.MeanRise * f, Std: a.StdRise * f},
		{Mean: a.MeanFall * f, Std: a.StdFall * f},
	}
}

// touches reports whether net w is one of buffer b's wires.
func touches(w wire, b goldenBuf) bool { return w.to == b.x || w.from == b.y }

func TestGoldenDigests(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		tab := buildTables(t, seed)
		opt := core.Options{TopK: 8, Hold: true, Workers: 2}
		base, err := core.NewEngineScenarios(tab, core.DefaultScenarios(), opt)
		if err != nil {
			t.Fatal(err)
		}
		base.Run()
		base.RefreshHoldSlacks()
		g := &goldenScript{t: t, e: base.Fork(), rng: uint64(seed)}
		for i := range tab.Arcs {
			w := wire{tab.Arcs[i].From, tab.Arcs[i].To}
			if tab.Arcs[i].Kind == 1 {
				g.nets = append(g.nets, w)
			} else {
				g.cell = append(g.cell, w)
			}
		}

		h := fnv64a(14695981039346656037)
		apply := func(ops ...Op) {
			t.Helper()
			if _, err := Edit(g.e, ops); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for step := 0; step < goldenSteps; step++ {
			g.pending = 0
			kind := g.intn(8)
			if len(g.bufs) < 2 {
				kind = 0
			}
			switch kind {
			case 0, 1, 2:
				apply(g.insertOp(g.intn(len(g.nets))))
			case 3, 4:
				apply(g.removeOp(g.intn(len(g.bufs))))
			case 5: // annotate through a structural batch: a wire and a buffer
				w := g.arc(g.nets[g.intn(len(g.nets))], 1)
				b := g.bufs[g.intn(len(g.bufs))]
				c := g.arc(wire{b.x, b.y}, 0)
				apply(Annotate(w, g.scaled(w)), Annotate(c, g.scaled(c)))
			case 6: // annotate an original cell arc and a wire
				c := g.arc(g.cell[g.intn(len(g.cell))], 0)
				w := g.arc(g.nets[g.intn(len(g.nets))], 1)
				apply(Annotate(c, g.scaled(c)), Annotate(w, g.scaled(w)))
			case 7: // one batch of all three kinds, on disjoint arcs
				b := g.intn(len(g.bufs))
				buf := g.bufs[b]
				n := g.intn(len(g.nets))
				for touches(g.nets[n], buf) {
					n = (n + 1) % len(g.nets)
				}
				c := g.arc(g.cell[g.intn(len(g.cell))], 0)
				// Ids first: they address the tables as the batch finds them.
				ins := g.insertOp(n)
				apply(ins, Annotate(c, g.scaled(c)), g.removeOp(b))
			}
			got := g.e
			for sc := 0; sc < got.Lanes(); sc++ {
				h.floats(got.LaneSlacks(sc)...)
				h.floats(got.LaneHoldSlacks(sc)...)
			}
		}
		t.Logf("seed %d: %d inserts, %d unbuffers, %d annotations, digest %#x",
			seed, g.inserted, g.removed, g.annotated, uint64(h))
		if g.removed < 5 {
			t.Errorf("seed %d: the script removed only %d buffers", seed, g.removed)
		}
		if want := goldenDigests[seed]; uint64(h) != want {
			t.Errorf("seed %d: digest %#x, want %#x", seed, uint64(h), want)
		}
		g.e.Close()
		base.Close()
	}
}

// fnv64a is FNV-1a folding a 64-bit word per step (internal/refsta's golden
// test uses the same fold).
type fnv64a uint64

func (h *fnv64a) floats(vs ...float64) {
	for _, v := range vs {
		*h = (*h ^ fnv64a(math.Float64bits(v))) * 1099511628211
	}
}
