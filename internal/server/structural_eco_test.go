package server

import (
	"io"
	"log/slog"
	"reflect"
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/num"
)

// TestStructuralSessionECOInOverlay drives one session on an {ss,tt,ff}
// manager with hold on through buffer → ECO → second buffer → commit. The
// ECO goes to the overlay over the session's working engine, and the second
// buffer first folds it into that engine. After every step each lane of the
// session equals a cold manager over the edited tables; after the commit so
// do the base's setup and hold slacks. Between the ECO and the second
// buffer, a topo batch that topo refuses — after it has folded the overlay —
// leaves the session's Result as it was.
func TestStructuralSessionECOInOverlay(t *testing.T) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		t.Fatal(err)
	}
	ref, tab := buildTables(t, spec)
	opt := core.Options{TopK: 8, Workers: 2, Hold: true}
	e, err := core.NewEngineScenarios(tab, core.DefaultScenarios(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := NewManager(e, ref, Options{})
	defer m.Close()
	m.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	sess, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Net arcs and cell arcs on critical paths (non-zero timing gradient),
	// so that every step moves a slack.
	probe, err := core.NewEngine(tab, core.Options{TopK: 8, Workers: 2, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	probe.Run()
	probe.Backward()
	var nets, cells []int32
	for a := int32(0); a < int32(ref.NumArcs()); a++ {
		if probe.TimingGradient(a) == 0 {
			continue
		}
		if tab.Arcs[a].Kind == 1 {
			nets = append(nets, a)
		} else {
			cells = append(cells, a)
		}
	}
	if len(nets) < 2 || len(cells) < 1 {
		t.Fatalf("%d critical net arcs and %d cell arcs", len(nets), len(cells))
	}
	// A buffer re-annotates its driver's cell arcs; the ECO's arc is not one.
	cells = slices.DeleteFunc(cells, func(c int32) bool {
		return tab.Arcs[c].To == tab.Arcs[nets[0]].From || tab.Arcs[c].To == tab.Arcs[nets[1]].From
	})

	names := []string{"", "ss", "tt", "ff", "merged"}
	views := func(read func(string) ([]float64, error)) [][]float64 {
		out := make([][]float64, len(names))
		for i, n := range names {
			if out[i], err = read(n); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	cold := func(want *circuitops.Tables) *Manager {
		ce, err := core.NewEngineScenarios(want, core.DefaultScenarios(), opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ce.Close)
		return NewManager(ce, nil, Options{})
	}
	prev := views(readBase(m))
	// check holds the session to a cold manager over want, and a step to
	// moving some lane's slacks.
	check := func(step string, want *circuitops.Tables) *Manager {
		got, cm := views(readSession(sess)), cold(want)
		if w := views(readBase(cm)); !sameBits(got, w) {
			t.Fatalf("%s: the session's slacks differ from a cold manager's over the edited tables", step)
		}
		if sameBits(got, prev) {
			t.Fatalf("%s: no slack moved — the step is vacuous", step)
		}
		prev = got
		return cm
	}
	buffer := func(arc int32) {
		if _, err := sess.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "buffer", Arc: arc}}}); err != nil {
			t.Fatal(err)
		}
	}

	buffer(nets[0])
	want := sess.work.ExportState().Tables()
	check("buffer", want)

	arc := cells[0]
	a := want.Arcs[arc]
	eco := ArcECO{Arc: arc, Rise: num.Dist{Mean: a.MeanRise + 40, Std: a.StdRise}, Fall: num.Dist{Mean: a.MeanFall + 40, Std: a.StdFall}}
	reseeds := sess.wst.Edits
	if _, err := sess.ApplyECO(ECORequest{Arcs: []ArcECO{eco}}); err != nil {
		t.Fatal(err)
	}
	if sess.wst.Edits != reseeds || sess.ov.Base() != sess.work || sess.ov.Stats().TouchedArcs != 1 {
		t.Fatalf("the ECO did not go to the overlay over the working engine: %d edits (was %d), %d overlay arcs",
			sess.wst.Edits, reseeds, sess.ov.Stats().TouchedArcs)
	}
	want.Arcs[arc].MeanRise, want.Arcs[arc].MeanFall = eco.Rise.Mean, eco.Fall.Mean
	check("ECO", want)

	// unbuffer of a net arc: resolved, then refused by topo after the fold.
	before, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "unbuffer", Arc: nets[1]}}}); err == nil {
		t.Fatal("unbuffer of a net arc was accepted")
	}
	if sess.ov.Stats().TouchedArcs != 0 {
		t.Fatal("the refused batch did not fold the overlay — the check is vacuous")
	}
	if after, err := sess.Result(); err != nil || !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused batch moved the session's result: %+v, was %+v (err %v)", after, before, err)
	}

	buffer(nets[1])
	want2 := sess.work.ExportState().Tables()
	if got := want2.Arcs[arc]; got.MeanRise != eco.Rise.Mean || got.MeanFall != eco.Fall.Mean {
		t.Fatalf("the working engine lost the ECO: arc %d %v/%v, want %v/%v", arc, got.MeanRise, got.MeanFall, eco.Rise.Mean, eco.Fall.Mean)
	}
	cm := check("second buffer", want2)

	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if base := views(readBase(m)); !sameBits(base, prev) {
		t.Fatal("commit: the base's slacks differ from the cold manager's")
	}
	for l := range e.Lanes() {
		if got, w := m.Engine().LaneHoldSlacks(l), cm.Engine().LaneHoldSlacks(l); !slices.Equal(got, w) {
			t.Fatalf("commit: lane %d's hold slacks differ from the cold manager's", l)
		}
	}
}

// TestClosedStructuralSessionPoolsOnBase closes a session that holds a
// structural edit. Its overlay sat over the session's working engine, which
// Close discards, so it must go back re-pointed at the served base: that
// engine's pool is where the next session looks for one.
func TestClosedStructuralSessionPoolsOnBase(t *testing.T) {
	spec, err := bench.IWLSSpec("des")
	if err != nil {
		t.Fatal(err)
	}
	ref, tab := buildTables(t, spec)
	e, err := core.NewEngine(tab, core.Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := NewManager(e, ref, Options{})
	defer m.Close()
	sess, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "buffer", Arc: 0}}}); err != nil {
		t.Fatal(err)
	}
	if sess.ov.Base() == e {
		t.Fatal("the structural session's overlay sits over the served base, not its working engine")
	}
	if !sess.Close() {
		t.Fatal("Close did not close the session")
	}
	if got := sess.ov.Base(); got != m.eng {
		t.Errorf("after Close the overlay's base is %p, want the manager's engine %p", got, m.eng)
	}
}
