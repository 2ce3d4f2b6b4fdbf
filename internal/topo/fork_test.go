package topo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"insta/internal/core"
	"insta/internal/num"
	"insta/internal/snap"
)

// frozenView is what editing a fork must never change of the engine it was
// forked from, as bytes: every state slab (snap.Encode), and per lane the
// setup and hold slacks, the critical startpoints and transitions, and every
// pin's late queues as its row shows them — which reads each pin's row span,
// so a moved or resized row shows too. The early queues are what the hold
// slacks are evaluated from; TestForkIsPrivate re-evaluates them at its end.
func frozenView(e *core.Engine) []byte {
	b := snap.Encode(e.ExportState(), nil, "")
	f64 := func(vs ...float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for s := 0; s < e.Lanes(); s++ {
		f64(e.LaneSlacks(s)...)
		f64(e.LaneHoldSlacks(s)...)
		for i := range e.Endpoints() {
			sp, rf := e.LaneCriticalStartpoint(s, i)
			b = binary.LittleEndian.AppendUint32(b, uint32(sp))
			b = append(b, byte(rf))
		}
		for p := int32(0); p < int32(e.NumPins()); p++ {
			for rf := 0; rf < 2; rf++ {
				mean, std, sps := e.LaneTopEntries(rf, p, s)
				f64(mean...)
				f64(std...)
				for _, sp := range sps {
					b = binary.LittleEndian.AppendUint32(b, uint32(sp))
				}
			}
		}
	}
	return b
}

// TestForkIsPrivate forks an engine of three lanes with hold on twice while
// two overlays preview over it, then runs a seeded 50-step script of buffer
// insertions, bypasses and re-annotations on both forks, each step on both at
// once, as two sessions would. After every step the base is bit for bit what
// it was before the forks, and each fork equals a cold engine over the edited
// netlist. The base is itself a working engine after one insertion, as the
// served base is after a structural commit: its slabs and rows have room to
// grow in place, which forks that shared them would write into, over the base
// or over each other. The unit lane comes first, so that
// assertEnginesIdentical's cold single-lane oracle holds lane 0 to it.
func TestForkIsPrivate(t *testing.T) {
	tab := buildTables(t, 44)
	scns, err := core.ParseScenarios("tt,ss,ff")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{TopK: 8, Hold: true, Workers: 2}
	cold, err := core.NewEngineScenarios(tab, scns, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold.Run()
	cold.RefreshHoldSlacks()
	base := cold.Fork()
	cold.Close()
	defer base.Close()
	nets := netArcs(tab)
	work := cloneTables(tab)
	res, err := Edit(base, []Op{InsertBuffer(nets[len(nets)/3], -1, bufDelay(3, 0.2), 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	advance(work, res)
	want := frozenView(base)

	// Fork while overlays preview over the base: each has previewed once
	// before the fork starts and keeps previewing until it is done.
	var wg sync.WaitGroup
	started, done := make(chan struct{}), make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(arc int32) {
			defer wg.Done()
			o := core.NewOverlay(base)
			defer o.Release()
			for n := 0; ; n++ {
				o.Reset()
				for rf := 0; rf < 2; rf++ {
					d := base.ArcDelay(arc, rf)
					o.SetArcDelay(arc, rf, num.Dist{Mean: d.Mean * (1.5 + float64(n%3)), Std: d.Std})
				}
				o.Propagate()
				if n == 0 {
					started <- struct{}{}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(nets[i*len(nets)/2])
	}
	<-started
	<-started
	forks := []*core.Engine{base.Fork(), base.Fork()}
	defer forks[0].Close()
	defer forks[1].Close()
	close(done)
	wg.Wait()
	if !bytes.Equal(frozenView(base), want) {
		t.Fatal("forking changed the base")
	}

	rng := rand.New(rand.NewSource(44))
	var bufs []int32 // cell arcs of the buffers the script inserted and has not removed
	counts := map[string]int{}
	for step := 0; step < 50; step++ {
		st := forks[0].ExportState()
		kind, op := "annotate", Op{}
		switch r := rng.Intn(4); {
		case r < 2:
			kind = "insert"
			arc := int32(rng.Intn(len(st.ArcFrom)))
			for st.ArcKind[arc] != 1 {
				arc = int32(rng.Intn(len(st.ArcFrom)))
			}
			op = InsertBuffer(arc, -1, bufDelay(2+3*rng.Float64(), 0.2), []float64{0, 0.3, 0.75}[rng.Intn(3)])
		case r == 2 && len(bufs) > 0:
			kind = "remove"
			op = RemoveBuffer(bufs[rng.Intn(len(bufs))])
		default:
			arc := int32(rng.Intn(len(st.ArcFrom)))
			a, f := st.Arc(arc), 0.8+0.5*rng.Float64()
			op = Annotate(arc, [2]num.Dist{{Mean: a.MeanRise * f, Std: a.StdRise * f}, {Mean: a.MeanFall * f, Std: a.StdFall * f}})
		}
		var res [2]*Result
		var errs [2]error
		var edits sync.WaitGroup
		for i, f := range forks {
			edits.Add(1)
			go func() {
				defer edits.Done()
				res[i], errs[i] = Edit(f, []Op{op})
			}()
		}
		edits.Wait()
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("step %d: the forks disagree on %+v: %v / %v", step, op, errs[0], errs[1])
		}
		if errs[0] != nil {
			kind = "rejected"
		} else {
			advance(work, res[0])
		}
		counts[kind]++
		switch kind {
		case "insert":
			bufs = append(bufs, int32(len(st.ArcFrom)))
		case "remove":
			bufs = slices.DeleteFunc(bufs, func(a int32) bool { return a == op.Arc })
		}
		tag := fmt.Sprintf("step %d (%s)", step, kind)
		if !bytes.Equal(frozenView(base), want) {
			t.Fatalf("%s: editing the fork changed the base", tag)
		}
		for i, f := range forks {
			assertEnginesIdentical(t, fmt.Sprintf("%s, fork %d", tag, i), f, work, opt)
		}
	}
	t.Logf("script: %v", counts)
	if counts["insert"] == 0 || counts["remove"] == 0 || counts["annotate"] == 0 {
		t.Fatalf("the script ran %v — a kind is missing", counts)
	}
	base.RefreshHoldSlacks()
	if !bytes.Equal(frozenView(base), want) {
		t.Fatal("the base's early queues changed: its hold slacks re-evaluate differently")
	}
}
