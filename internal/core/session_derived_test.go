package core_test

import (
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/num"
	"insta/internal/refsta"
	"insta/internal/topo"
)

// TestSessionKeepsDerivedLayout: topo.Edit inserts a buffer on a
// net arc whose driver is derived, in a fork of the base, and bypasses it
// again. The bypass takes the buffer output's only fan-out, which the patched
// state no longer records, so the patch has to name that pin to the reseed;
// after each edit the engine must store, derive and kill exactly the pins a
// cold engine over its state does — the bypassed buffer reaches no endpoint,
// so its pins die.
func TestSessionKeepsDerivedLayout(t *testing.T) {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := circuitops.Extract(ref)
	opt := core.Options{TopK: 8, Hold: true, Workers: 1}
	base, err := core.NewEngine(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	base.Run()
	kinds := core.PinKinds(base)
	arc := int32(-1)
	for i, a := range tab.Arcs {
		if a.Kind == 1 && kinds[a.From] == core.KindDerived && liberty.Unate(a.Sense) == liberty.PositiveUnate {
			arc = int32(i)
			break
		}
	}
	if arc < 0 {
		t.Fatal("no net arc has a derived driver")
	}
	work := base.Fork()
	defer work.Close()
	delay := [2]num.Dist{{Mean: 5, Std: 0.5}, {Mean: 5.5, Std: 0.5}}
	for _, op := range []topo.Op{topo.InsertBuffer(arc, -1, delay, 0.5), topo.RemoveBuffer(int32(len(tab.Arcs)))} {
		if _, err := topo.Edit(work, []topo.Op{op}); err != nil {
			t.Fatal(err)
		}
		cold, err := core.NewEngineFromState(work.ExportState(), opt)
		if err != nil {
			t.Fatal(err)
		}
		got, want := core.PinKinds(work), core.PinKinds(cold)
		cold.Close()
		if !slices.Equal(got, want) {
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("after %+v: pin %d is %c, a cold engine's %c", op, p, got[p], want[p])
				}
			}
		}
	}
	kinds = core.PinKinds(work)
	if kinds[tab.Arcs[arc].From] == core.KindDerived {
		t.Fatal("the bypassed buffer's driver is still derived — the check is vacuous")
	}
	if buf := kinds[len(kinds)-2:]; buf[0] != core.KindDead || buf[1] != core.KindDead {
		t.Fatalf("the bypassed buffer's pins are %c, %c; want both dead", buf[0], buf[1])
	}
}
