package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exact"
	"insta/internal/liberty"
	"insta/internal/num"
)

// laneDelay is delay as lane scn sees it: each arc's nominal delay times the
// scenario's factors for the arc's kind, as the engine's kernels derate it.
func laneDelay(delay exact.Delay, kind []uint8, scn core.Scenario) exact.Delay {
	return func(arc int32, rf int) num.Dist {
		d := delay(arc, rf)
		ms, ss := scn.Scale(kind[arc])
		return num.Dist{Mean: d.Mean * ms, Std: d.Std * ss}
	}
}

// sessionAudit is one run of TestSessionsAuditExact's script.
type sessionAudit struct {
	t     *testing.T
	m     *Manager
	fixed []int32 // endpoints walked at every audit
	moved []bool  // per lane: an audited endpoint whose slack differs from the base's
	walks int     // endpoint walks, over all lanes
	tag   string  // the step being audited
	base  [][]float64
	// The hold audit's counterparts: the endpoints walked at every hold
	// audit, per lane whether an audited hold slack differed from the boot
	// base's, how many hold walks ran, and the committed and boot hold slacks.
	fixedHold []int32
	holdMoved []bool
	holdWalks int
	baseHold  [][]float64
	boot      [][]float64
	// seen is, per session, every endpoint it has differed from the base at
	// since it last committed or rolled back: a view that loses a delta shows
	// the base slack there, and the walk does not.
	seen map[*Session][]int32
}

// changed adds to eps the endpoints where view differs from ref in any lane,
// up to 64 in all.
func changed(eps []int32, view, ref [][]float64) []int32 {
	for ep := range view[0] {
		for l := range view {
			if len(eps) < 64 && math.Float64bits(view[l][ep]) != math.Float64bits(ref[l][ep]) && !slices.Contains(eps, int32(ep)) {
				eps = append(eps, int32(ep))
			}
		}
	}
	return eps
}

// check walks, in every lane, endpoints eps and the fixed ones over state st
// and nominal arc delays delay, and fails where a walked slack is not view's
// bit for bit.
func (a *sessionAudit) check(st *core.State, delay exact.Delay, view [][]float64, eps []int32) {
	t := a.t
	eps = slices.Clip(eps)
	for _, ep := range a.fixed {
		if !slices.Contains(eps, ep) {
			eps = append(eps, ep)
		}
	}
	// The audit is of setup slacks: over a copy of the state with no hold
	// check the walk builds no early arrivals.
	setup := *st
	unchecked := make([]float64, len(st.EpPin))
	for i := range unchecked {
		unchecked[i] = math.Inf(1)
	}
	setup.EpHold = [2][]float64{unchecked, unchecked}
	w, err := exact.New(&setup)
	if err != nil {
		t.Fatal(err)
	}
	for l, scn := range a.m.Scenarios() {
		res, _ := w.Walk(laneDelay(delay, setup.ArcKind, scn), eps...)
		for i, ep := range eps {
			if got, want := res[i].Setup, view[l][ep]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: lane %s, endpoint %d: exact setup slack %v, served %v", a.tag, scn.Name, ep, got, want)
			}
			if view[l][ep] != a.base[l][ep] {
				a.moved[l] = true
			}
		}
		a.walks += len(eps)
	}
}

// holdViews copies every lane of e's hold slacks.
func holdViews(e *core.Engine) [][]float64 {
	out := make([][]float64, e.Lanes())
	for l := range out {
		out[l] = slices.Clone(e.LaneHoldSlacks(l))
	}
	return out
}

// checkHold walks, in every lane, endpoints eps and the fixed hold ones over
// state st — hold checks and all — and nominal arc delays delay, and fails
// where a walked hold slack is not hold's bit for bit.
func (a *sessionAudit) checkHold(st *core.State, delay exact.Delay, hold [][]float64, eps []int32) {
	t := a.t
	eps = slices.Clip(eps)
	for _, ep := range a.fixedHold {
		if !slices.Contains(eps, ep) {
			eps = append(eps, ep)
		}
	}
	w, err := exact.New(st)
	if err != nil {
		t.Fatal(err)
	}
	for l, scn := range a.m.Scenarios() {
		res, _ := w.Walk(laneDelay(delay, st.ArcKind, scn), eps...)
		for i, ep := range eps {
			if got, want := res[i].Hold, hold[l][ep]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: lane %s, endpoint %d: exact hold slack %v, engine %v", a.tag, scn.Name, ep, got, want)
			}
			if hold[l][ep] != a.boot[l][ep] {
				a.holdMoved[l] = true
			}
		}
		a.holdWalks += len(eps)
	}
}

// session reads s in every lane through its public read path, which rebases
// it first, and audits what it read against the walker over the state the
// session times — its working engine's, or the base's — under its overlay's
// arc delays. A structural session's hold slacks are its working engine's,
// which is what it serves. It reports false for a session a commit has
// conflicted.
func (a *sessionAudit) session(s *Session) bool {
	view, err := laneViews(a.m.Scenarios(), readSession(s))
	if errors.Is(err, ErrStructuralConflict) {
		return false
	} else if err != nil {
		a.t.Fatalf("%s: %v", a.tag, err)
	}
	a.seen[s] = changed(a.seen[s], view, a.base)
	if s.work != nil {
		e := s.work
		a.check(e.ExportState(), s.ov.ArcDelay, view, a.seen[s])
		hold := holdViews(e)
		a.checkHold(e.ExportState(), e.ArcDelay, hold, changed(nil, hold, a.baseHold))
	} else {
		a.check(a.m.eng.ExportState(), s.ov.ArcDelay, view, a.seen[s])
	}
	return true
}

// TestSessionsAuditExact holds every lane of every session read to the exact
// walker of internal/exact, which shares no Top-K machinery, through a seeded
// 64-step script over two sessions on an {ss,tt,ff} manager over block-2 at
// K = 128, where every queue holds every startpoint that reaches it, at
// Workers 1 and 4. The script mixes raw-arc and resize ECOs, buffer,
// unbuffer and annotate batches, commits of both kinds — so annotation
// sessions rebase over structural commits — and rollbacks. After every step
// the session that acted — after a commit both, which rebases the other — is
// read in every lane and walked at the endpoints it has moved since it last
// committed or rolled back (up to 64) plus the 16 worst at the start, over the state it times and the arc delays of its overlay or
// working engine, times the lane's factors; after every commit the base is
// walked at the endpoints the commit moved. The engine runs with hold on, and
// hold slacks are walked too: a working engine's after every step of its
// session, at the endpoints where they differ from the committed base's (up
// to 64) plus the 16 worst at the start, and the base's after every commit,
// at the endpoints the commit moved plus the same 16.
func TestSessionsAuditExact(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every session view of a 64-step script")
	}
	spec, err := bench.BlockSpec("block-2")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) { auditScript(t, spec, workers) })
	}
}

func auditScript(t *testing.T, spec bench.Spec, workers int) {
	ref, tab := buildTables(t, spec)
	e, err := core.NewEngineScenarios(tab, core.DefaultScenarios(), core.Options{TopK: 128, Workers: workers, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := NewManager(e, ref, Options{})
	defer m.Close()
	m.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	a := &sessionAudit{t: t, m: m, moved: make([]bool, e.Lanes()), holdMoved: make([]bool, e.Lanes()), seen: map[*Session][]int32{}}
	if a.base, err = laneViews(m.Scenarios(), readBase(m)); err != nil {
		t.Fatal(err)
	}
	a.baseHold = holdViews(m.eng)
	a.boot = a.baseHold
	worst := func(slacks []float64) []int32 {
		order := make([]int32, len(slacks))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(x, y int32) int { return cmp.Compare(slacks[x], slacks[y]) })
		return order[:16]
	}
	a.fixed, a.fixedHold = worst(a.base[m.nom]), worst(a.baseHold[m.nom])
	rng := rand.New(rand.NewSource(38))

	var sess [2]*Session
	for i := range sess {
		if sess[i], err = m.Create(); err != nil {
			t.Fatal(err)
		}
		defer sess[i].Close()
	}
	resizes := bench.Changelist(&bench.Design{D: ref.D, Lib: ref.Lib}, 38, 64)
	var bufs, committedBufs []int32 // cell arcs of the buffers session 1 inserted and has not removed
	var repowers, moves int         // topo repowers and moves session 1 holds uncommitted
	counts := map[string]int{}
	structEpoch := uint64(0) // the epoch the last structural commit published

	// arcs draws n distinct arcs of s's view and re-annotates each at 0.7x to
	// 1.5x its current delay.
	arcs := func(s *Session, n int) []ArcECO {
		delay, lim := s.ov.ArcDelay, m.eng.NumArcs()
		if s.work != nil {
			lim = s.work.NumArcs()
		}
		var out []ArcECO
		for len(out) < n {
			arc := int32(rng.Intn(lim))
			if slices.ContainsFunc(out, func(x ArcECO) bool { return x.Arc == arc }) {
				continue
			}
			f := 0.7 + 0.8*rng.Float64()
			rise, fall := delay(arc, 0), delay(arc, 1)
			out = append(out, ArcECO{Arc: arc,
				Rise: num.Dist{Mean: rise.Mean * f, Std: rise.Std * f},
				Fall: num.Dist{Mean: fall.Mean * f, Std: fall.Std * f}})
		}
		return out
	}
	annotate := func(s *Session, n int) TopoRequest {
		var req TopoRequest
		for _, x := range arcs(s, n) {
			req.Ops = append(req.Ops, TopoOp{Op: "annotate", Arc: x.Arc, Rise: x.Rise, Fall: x.Fall})
		}
		return req
	}
	rollback := func(i int) {
		if err := sess[i].Rollback(); err != nil {
			t.Fatal(err)
		}
		delete(a.seen, sess[i])
		if i == 1 {
			bufs = slices.Clone(committedBufs)
			repowers, moves = 0, 0
		}
	}
	netArc := func() int32 {
		st := m.eng.ExportState()
		for {
			if arc := int32(rng.Intn(ref.NumArcs())); st.ArcKind[arc] == 1 {
				return arc
			}
		}
	}

	const steps = 60
	for step := 0; step < steps; step++ {
		i := rng.Intn(2)
		s := sess[i]
		r := rng.Intn(12)
		kinds := [2][12]string{
			{"arcs", "arcs", "arcs", "arcs", "arcs", "resize", "resize", "resize", "commit", "commit", "rollback", "annotate"},
			{"buffer", "buffer", "unbuffer", "unbuffer", "annotate", "repower", "move", "arcs", "commit", "commit", "commit", "rollback"},
		}
		kind := kinds[i][r]
		if kind == "unbuffer" && len(bufs) == 0 {
			kind = "buffer"
		}
		a.tag = fmt.Sprintf("W%d step %d: session %d %s", workers, step, i, kind)
		before := slices.Clone(a.base)
		structural := s.work != nil
		var err error
		switch kind {
		case "arcs":
			_, err = s.ApplyECO(ECORequest{Arcs: arcs(s, 1+rng.Intn(4))})
		case "resize":
			rz := resizes[0]
			resizes = resizes[1:]
			_, err = s.ApplyECO(ECORequest{Resizes: []ResizeReq{{Cell: ref.D.Cells[rz.Cell].Name, Lib: ref.Lib.Cell(rz.NewLib).Name}}})
		case "annotate":
			_, err = s.ApplyTopo(annotate(s, 1+rng.Intn(3)))
		case "repower":
			rz := resizes[0]
			resizes = resizes[1:]
			if _, err = s.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "repower", Cell: ref.D.Cells[rz.Cell].Name, Lib: ref.Lib.Cell(rz.NewLib).Name}}}); err == nil {
				repowers++
			}
		case "move":
			c := &ref.D.Cells[rng.Intn(len(ref.D.Cells))]
			for c.Fixed {
				c = &ref.D.Cells[rng.Intn(len(ref.D.Cells))]
			}
			x, y := c.X+float64(rng.Intn(61)-30), c.Y+float64(rng.Intn(61)-30)
			if _, err = s.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "move", Cell: c.Name, X: x, Y: y}}}); err == nil {
				moves++
			}
		case "buffer":
			var tr *TopoResult
			if tr, err = s.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "buffer", Arc: netArc(), Frac: 0.25 + 0.5*rng.Float64()}}}); err == nil {
				bufs = append(bufs, int32(tr.NewArcs[0]))
			}
		case "unbuffer":
			arc := bufs[rng.Intn(len(bufs))]
			if _, err = s.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "unbuffer", Arc: arc}}}); err == nil {
				bufs = slices.DeleteFunc(bufs, func(b int32) bool { return b == arc })
			}
		case "commit":
			if _, err = s.Commit(); err == nil {
				// The base is walked at the endpoints the commit moved.
				if a.base, err = laneViews(m.Scenarios(), readBase(m)); err != nil {
					t.Fatal(err)
				}
				a.check(m.eng.ExportState(), m.eng.ArcDelay, a.base, changed(nil, a.base, before))
				hold := holdViews(m.eng)
				a.checkHold(m.eng.ExportState(), m.eng.ArcDelay, hold, changed(nil, hold, a.baseHold))
				a.baseHold = hold
				delete(a.seen, s)
				if structural {
					structEpoch = m.epoch
					counts["structural commit"]++
					counts["repower committed"] += repowers
					counts["move committed"] += moves
					committedBufs = slices.Clone(bufs)
					repowers, moves = 0, 0
				}
			}
		case "rollback":
			rollback(i)
		}
		switch {
		case errors.Is(err, ErrStructuralConflict):
			counts["conflict"]++
			rollback(i)
		case errors.Is(err, ErrSessionPoisoned), errors.Is(err, ErrSessionClosed):
			t.Fatalf("%s: %v", a.tag, err)
		case err != nil:
			counts["refused"]++
			t.Logf("%s: %v", a.tag, err)
		default:
			counts[kind]++
		}
		// The session that acted is audited; after a commit the other is
		// too, which rebases it — or conflicts it, and it rolls back.
		for j, s := range sess {
			if j != i && kind != "commit" {
				continue
			}
			if s.work == nil && s.ov.Stats().TouchedArcs > 0 && s.epoch < structEpoch {
				counts["rebase over a structural commit"]++
			}
			if !a.session(s) {
				counts["conflict"]++
				rollback(j)
				a.session(s)
			}
		}
	}
	for _, k := range []string{"arcs", "resize", "buffer", "unbuffer", "annotate", "repower", "move", "structural commit",
		"repower committed", "move committed", "rebase over a structural commit", "rollback"} {
		if counts[k] == 0 {
			t.Fatalf("the script ran %v: no %s", counts, k)
		}
	}
	if counts["commit"] == counts["structural commit"] {
		t.Fatalf("the script ran %v: no annotation commit", counts)
	}
	for l, moved := range a.moved {
		if !moved {
			t.Fatalf("no audited endpoint moved in lane %s", m.Scenarios()[l].Name)
		}
		if !a.holdMoved[l] {
			t.Fatalf("no audited hold slack moved in lane %s", m.Scenarios()[l].Name)
		}
	}
	t.Logf("steps %v, %d endpoint walks, %d hold walks", counts, a.walks, a.holdWalks)
}

// derivedPin is core's rule for a pin that keeps no row: one unate fan-in
// arc, one fan-out, neither a startpoint nor an endpoint, and a child that is
// not a startpoint.
func derivedPin(st *core.State, p int32) bool {
	lo, fo := st.FaninStart[p], st.FoStart[p]
	return st.FaninStart[p+1]-lo == 1 && liberty.Unate(st.FaninSense[lo]) != liberty.NonUnate &&
		st.FoStart[p+1]-fo == 1 && st.SpOfPin[p] < 0 && st.EpOfPin[p] < 0 && st.SpOfPin[st.FoAdj[fo]] < 0
}

// TestRebaseDropsScratchAcrossEngines: an overlay's wave scratch is bound to
// the engine it was taken from, so Overlay.Rebase must drop it when a
// structural commit installs another engine, even one of the same size. An
// unbuffer-only commit appends no pins. Between a committed buffer insertion
// and the commit of its removal, an annotation session previews; then it
// re-annotates the cell arc into the buffer's driver, a pin the bypass turns
// from derived (one fan-out) into stored (two). On an {ss,tt,ff} manager over
// block-2 at K = 128, every lane of the session at every endpoint the driver
// reaches (up to 64) is bit for bit the exact walker's.
func TestRebaseDropsScratchAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("walks block-2 at K = 128")
	}
	spec, err := bench.BlockSpec("block-2")
	if err != nil {
		t.Fatal(err)
	}
	ref, tab := buildTables(t, spec)
	e, err := core.NewEngineScenarios(tab, core.DefaultScenarios(), core.Options{TopK: 128, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := NewManager(e, ref, Options{})
	defer m.Close()
	m.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))

	// A net arc whose driver is derived and is driven through a cell arc.
	st := e.ExportState()
	wire := int32(-1)
	for a := range int32(ref.NumArcs()) {
		if u := st.ArcFrom[a]; st.ArcKind[a] == 1 && derivedPin(st, u) && st.ArcKind[st.FaninArc[st.FaninStart[u]]] == 0 {
			wire = a
			break
		}
	}
	if wire < 0 {
		t.Fatal("no net arc has a derived driver behind a cell arc")
	}
	drv := st.ArcFrom[wire]
	drvArc := st.FaninArc[st.FaninStart[drv]]
	slower := func(arc int32, f float64) ECORequest {
		rise, fall := m.eng.ArcDelay(arc, 0), m.eng.ArcDelay(arc, 1)
		rise.Mean, fall.Mean = rise.Mean*f, fall.Mean*f
		return ECORequest{Arcs: []ArcECO{{Arc: arc, Rise: rise, Fall: fall}}}
	}

	sTopo, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sTopo.Close()
	tr, err := sTopo.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "buffer", Arc: wire}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sTopo.Commit(); err != nil {
		t.Fatal(err)
	}
	sAnn, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sAnn.Close()
	other := int32(0)
	for other == drvArc || st.ArcKind[other] != 0 {
		other++
	}
	if _, err := sAnn.ApplyECO(slower(other, 1.2)); err != nil {
		t.Fatal(err)
	}

	pins := m.eng.NumPins()
	if _, err := sTopo.ApplyTopo(TopoRequest{Ops: []TopoOp{{Op: "unbuffer", Arc: int32(tr.NewArcs[0])}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sTopo.Commit(); err != nil {
		t.Fatal(err)
	}
	st = m.eng.ExportState()
	if m.eng.NumPins() != pins || derivedPin(st, drv) {
		t.Fatalf("after the unbuffer commit: %d pins (was %d), driver derived %v — the premise fails",
			m.eng.NumPins(), pins, derivedPin(st, drv))
	}
	if _, err := sAnn.ApplyECO(slower(drvArc, 1.5)); err != nil {
		t.Fatal(err)
	}

	// The endpoints the driver reaches.
	var eps []int32
	seen := map[int32]bool{drv: true}
	for q := []int32{drv}; len(q) > 0 && len(eps) < 64; q = q[1:] {
		p := q[0]
		if ep := st.EpOfPin[p]; ep >= 0 {
			eps = append(eps, ep)
		}
		for _, c := range st.FoAdj[st.FoStart[p]:st.FoStart[p+1]] {
			if !seen[c] {
				seen[c] = true
				q = append(q, c)
			}
		}
	}
	a := &sessionAudit{t: t, m: m, moved: make([]bool, m.eng.Lanes()), tag: "re-annotated driver"}
	if a.base, err = laneViews(m.Scenarios(), readBase(m)); err != nil {
		t.Fatal(err)
	}
	view, err := laneViews(m.Scenarios(), readSession(sAnn))
	if err != nil {
		t.Fatal(err)
	}
	a.check(st, sAnn.ov.ArcDelay, view, eps)
	for l, moved := range a.moved {
		if !moved {
			t.Fatalf("lane %s: the re-annotation moved no endpoint the driver reaches — the check is vacuous", m.Scenarios()[l].Name)
		}
	}
	t.Logf("driver pin %d, %d endpoints walked per lane", drv, len(eps))
}
