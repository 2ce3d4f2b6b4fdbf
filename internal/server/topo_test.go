package server_test

// Serving-layer tests for structural ECO sessions: the POST /session/{id}/topo
// route, structural preview/commit/rollback semantics against the manager's
// epoch/generation machinery, the rollback-after-failed-commit byte-identity
// guarantee, and snapshot survival of structural edits.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/server"
	"insta/internal/snap"
)

// firstNetArc returns the lowest net-arc id of the setup's extraction tables
// (arc kind 1 = net arc), the natural buffer-insertion target.
func firstNetArc(t *testing.T, s *exp.Setup, skip int) int32 {
	t.Helper()
	for i := range s.Tab.Arcs {
		if s.Tab.Arcs[i].Kind == 1 {
			if skip == 0 {
				return int32(i)
			}
			skip--
		}
	}
	t.Fatal("no net arc in tables")
	return -1
}

// TestTopoHTTPBufferLifecycle drives the structural route over the wire:
// insert a buffer, read the structural footprint, commit, then remove the
// same buffer from a fresh session using the reported new-arc ids.
func TestTopoHTTPBufferLifecycle(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	defer mgr.Close()
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()
	c := srv.Client()

	code, m := postJSON(t, c, srv.URL+"/session", nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var id string
	json.Unmarshal(m["id"], &id)

	// Empty batch is a 400.
	code, _ = postJSON(t, c, srv.URL+"/session/"+id+"/topo", server.TopoRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty topo batch: %d, want 400", code)
	}

	arc := firstNetArc(t, s, 0)
	code, m = postJSON(t, c, srv.URL+"/session/"+id+"/topo", server.TopoRequest{
		Ops: []server.TopoOp{{Op: "buffer", Arc: arc, Frac: 0.4}},
	})
	if code != http.StatusOK {
		t.Fatalf("topo buffer: %d %v", code, m)
	}
	var res server.TopoResult
	buf, _ := json.Marshal(m)
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.NewPins != 2 || res.Edits != 1 {
		t.Fatalf("insert footprint: %+v", res)
	}
	if res.NewArcs[1]-res.NewArcs[0] != 2 {
		t.Fatalf("new_arcs %v, want a 2-arc range", res.NewArcs)
	}
	if res.View == nil || res.View.Epoch != mgr.Epoch() {
		t.Fatalf("topo view missing or stale: %+v", res.View)
	}
	if res.RelevelRegion <= 0 {
		t.Fatalf("relevel region %d, want > 0", res.RelevelRegion)
	}

	// The base is untouched until commit.
	if got := mgr.Engine().NumArcs(); got != len(s.Tab.Arcs) {
		t.Fatalf("preview mutated the base: %d arcs, want %d", got, len(s.Tab.Arcs))
	}

	epoch0 := mgr.Epoch()
	code, m = postJSON(t, c, srv.URL+"/session/"+id+"/commit", nil)
	if code != http.StatusOK {
		t.Fatalf("structural commit: %d %v", code, m)
	}
	if mgr.Epoch() != epoch0+1 || mgr.TopoGen() != 1 {
		t.Fatalf("epoch %d topoGen %d after structural commit", mgr.Epoch(), mgr.TopoGen())
	}
	if got := mgr.Engine().NumArcs(); got != len(s.Tab.Arcs)+2 {
		t.Fatalf("committed base has %d arcs, want %d", got, len(s.Tab.Arcs)+2)
	}
	// /healthz describes the committed design, not the boot one.
	var hz server.Healthz
	getJSON(t, srv.URL+"/healthz", &hz)
	if hz.Design.Pins != mgr.Engine().NumPins() || hz.Design.Arcs != mgr.Engine().NumArcs() {
		t.Fatalf("/healthz design %d pins / %d arcs, served engine has %d / %d",
			hz.Design.Pins, hz.Design.Arcs, mgr.Engine().NumPins(), mgr.Engine().NumArcs())
	}

	// Structural counters and the re-levelization histogram are on /metrics.
	resp, err := c.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	sb.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"insta_topo_edits_total 1\n",
		"insta_topo_buffers_inserted_total 1\n",
		"insta_topo_commits_total 1\n",
		"insta_base_topo_gen 1\n",
		"insta_topo_relevel_levels_count 1\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, sb.String())
		}
	}

	// Remove the committed buffer from a fresh session: its cell arc id is
	// the first id of the reported new-arc range.
	code, m = postJSON(t, c, srv.URL+"/session", nil)
	if code != http.StatusCreated {
		t.Fatalf("create 2: %d", code)
	}
	var id2 string
	json.Unmarshal(m["id"], &id2)
	code, m = postJSON(t, c, srv.URL+"/session/"+id2+"/topo", server.TopoRequest{
		Ops: []server.TopoOp{{Op: "unbuffer", Arc: int32(res.NewArcs[0])}},
	})
	if code != http.StatusOK {
		t.Fatalf("topo unbuffer: %d %v", code, m)
	}
	var res2 server.TopoResult
	buf, _ = json.Marshal(m)
	json.Unmarshal(buf, &res2)
	if res2.Removed != 1 {
		t.Fatalf("unbuffer footprint: %+v", res2)
	}
	// Roll the removal back over the wire; the session stays usable.
	if code, m = postJSON(t, c, srv.URL+"/session/"+id2+"/rollback", nil); code != http.StatusOK {
		t.Fatalf("rollback: %d %v", code, m)
	}
	code, _ = postJSON(t, c, srv.URL+"/session/"+id2+"/topo", server.TopoRequest{
		Ops: []server.TopoOp{{Op: "buffer", Arc: firstNetArc(t, s, 1)}},
	})
	if code != http.StatusOK {
		t.Fatalf("topo after rollback: %d", code)
	}
}

// TestTopoPreviewCommitBitIdentical pins the structural commit guarantee at
// the serving layer: the committed base's slack vector is byte-for-byte the
// previewed one (the commit installs the session's working engine, it does
// not re-derive anything).
func TestTopoPreviewCommitBitIdentical(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	defer mgr.Close()
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	cl := bench.Changelist(s.B, 7, 1)
	res, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 0), Frac: 0.3},
		{Op: "repower", Cell: s.B.D.Cells[cl[0].Cell].Name, Lib: s.B.Lib.Cell(cl[0].NewLib).Name},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Annotated == 0 {
		t.Fatalf("mixed batch footprint: %+v", res)
	}
	preview, err := sess.Slacks()
	if err != nil {
		t.Fatal(err)
	}
	previewWNS := res.View.WNS

	com, err := sess.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !com.Committed || com.WNS != previewWNS {
		t.Fatalf("committed WNS %v, preview %v", com.WNS, previewWNS)
	}
	base := mgr.Engine().Slacks()
	if len(base) != len(preview) {
		t.Fatalf("endpoint count changed: %d vs %d", len(base), len(preview))
	}
	for i := range base {
		if base[i] != preview[i] {
			t.Fatalf("endpoint %d: committed %v, previewed %v", i, base[i], preview[i])
		}
	}

	// The session stays open against the new base and can keep editing.
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 2)},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestTopoRollbackAfterFailedStructuralCommit is the failed-commit atomicity
// guarantee: when a structural commit loses the race (another session
// committed first), the base state the manager serves is byte-identical
// before the failed commit, after it, and after the session rolls back — the
// losing session never leaks a partial swap.
func TestTopoRollbackAfterFailedStructuralCommit(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	defer mgr.Close()

	sA, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sA.Close()
	if _, err := sA.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 0)},
	}}); err != nil {
		t.Fatal(err)
	}

	// A competing annotation session commits, moving the base under sA.
	sB, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sB.Close()
	if _, err := sB.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 97, 1.07)); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Commit(); err != nil {
		t.Fatal(err)
	}

	encode := func() []byte {
		return snap.Encode(mgr.Engine().ExportState(), nil, "k")
	}
	before := encode()

	if _, err := sA.Commit(); !errors.Is(err, server.ErrStructuralConflict) {
		t.Fatalf("conflicted structural commit: err %v, want ErrStructuralConflict", err)
	}
	if got := encode(); !bytes.Equal(got, before) {
		t.Fatal("failed structural commit mutated the base state")
	}
	if err := sA.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := encode(); !bytes.Equal(got, before) {
		t.Fatal("rollback after failed structural commit mutated the base state")
	}
	if tc := mgr.TopoCountersSnapshot(); tc.Conflicts == 0 {
		t.Fatal("conflict not counted")
	}

	// The rolled-back session re-applies against the moved base and commits.
	if _, err := sA.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 0)},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sA.Commit(); err != nil {
		t.Fatal(err)
	}
	if mgr.TopoGen() != 1 {
		t.Fatalf("topoGen %d after retry commit, want 1", mgr.TopoGen())
	}
}

// TestTopoPendingAnnotationsRejected: a session holding uncommitted overlay
// annotations cannot start structural edits (they would be priced against the
// wrong base); rolling back clears the block. Once structural, annotation
// ECOs preview in the overlay over the working engine.
func TestTopoPendingAnnotationsRejected(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	defer mgr.Close()
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 131, 1.02)); err != nil {
		t.Fatal(err)
	}
	req := server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: firstNetArc(t, s, 0)}}}
	if _, err := sess.ApplyTopo(req); !errors.Is(err, server.ErrPendingAnnotations) {
		t.Fatalf("topo on dirty session: err %v, want ErrPendingAnnotations", err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyTopo(req); err != nil {
		t.Fatal(err)
	}

	// Annotation ECO on the structural session folds into the working set.
	res, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 1, 131, 1.01))
	if err != nil {
		t.Fatal(err)
	}
	if res.TouchedArcs == 0 {
		t.Fatal("annotation on structural session touched nothing")
	}
}

// TestTopoRefusedFirstBatchKeepsAnnotationSession: a session's first /topo
// batch is validated against the base before the base is forked. An unbuffer
// of a net arc — the resolver lets any arc through, and topo refuses a
// removal whose arc is not a buffer's cell arc — is refused there: no fork is
// made and the session stays an annotation session. Its Result is as it was,
// no structural batch is counted, and after an ECO a buffer batch answers
// ErrPendingAnnotations, which only a session without a working engine does.
// Another session's valid first batch then forks once.
func TestTopoRefusedFirstBatchKeepsAnnotationSession(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	defer mgr.Close()
	tr := obs.NewTracer()
	mgr.Engine().SetTracer(tr)
	forks := func() int64 {
		for _, p := range tr.Totals() {
			if p.Name == "engine-fork" {
				return p.Count
			}
		}
		return 0
	}
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	before, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	net := firstNetArc(t, s, 0)
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{{Op: "unbuffer", Arc: net}}}); err == nil || errors.Is(err, server.ErrPendingAnnotations) {
		t.Fatalf("unbuffer of net arc %d: err %v, want topo's refusal", net, err)
	}
	after, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused first batch changed the session's view: %+v, was %+v", after, before)
	}
	if n := mgr.TopoCountersSnapshot().Edits; n != 0 {
		t.Fatalf("%d structural batches counted after a refused one", n)
	}
	if n := forks(); n != 0 {
		t.Fatalf("a refused first batch forked the base %d times", n)
	}
	if _, err := sess.ApplyDeltas(arcDeltas(mgr.Engine(), 0, 131, 1.02)); err != nil {
		t.Fatal(err)
	}
	req := server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: net}}}
	if _, err := sess.ApplyTopo(req); !errors.Is(err, server.ErrPendingAnnotations) {
		t.Fatalf("buffer batch after an ECO: err %v, want ErrPendingAnnotations", err)
	}

	other, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.ApplyTopo(req); err != nil {
		t.Fatal(err)
	}
	if n := forks(); n != 1 {
		t.Fatalf("a valid first batch forked the base %d times, want 1", n)
	}
}

// TestTopoStructuralCommitRebasesAnnotationSessions: annotation sessions
// opened before a structural commit keep working afterwards — their recorded
// deltas survive the engine swap and both the estimate_eco path and their own
// commit land on the new base.
func TestTopoStructuralCommitRebasesAnnotationSessions(t *testing.T) {
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{})
	defer mgr.Close()

	sAnn, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sAnn.Close()
	deltas := arcDeltas(mgr.Engine(), 0, 97, 1.05)
	if _, err := sAnn.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}

	sTopo, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sTopo.Close()
	if _, err := sTopo.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 0)},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sTopo.Commit(); err != nil {
		t.Fatal(err)
	}

	// sAnn transparently rebases onto the swapped engines.
	res, err := sAnn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != mgr.Epoch() {
		t.Fatalf("rebased session epoch %d, manager %d", res.Epoch, mgr.Epoch())
	}
	if res.TouchedArcs != len(deltas) {
		t.Fatalf("rebased session kept %d deltas, want %d", res.TouchedArcs, len(deltas))
	}
	if _, err := sAnn.Commit(); err != nil {
		t.Fatal(err)
	}

	// estimate_eco resolution still works against the structurally edited
	// base: extraction arc ids are the base's arc ids.
	sNew, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sNew.Close()
	ecos := resizeECOs(s, 13, 1)
	if _, err := sNew.ApplyECO(ecos[0]); err != nil {
		t.Fatal(err)
	}
}

// TestUnbufferCommitRebasesAnnotationSessions: an annotation session holding
// deltas — on the buffer's own three arcs among others — rebases over another
// session's commit that removes that buffer. It keeps every delta on the id it
// was recorded on, and reads, in every lane, what a cold manager over the
// edited tables reads with the same deltas applied.
func TestUnbufferCommitRebasesAnnotationSessions(t *testing.T) {
	mgr, s := newKindManager(t, true, "des", 8, 2, server.Options{})
	defer mgr.Close()

	sTopo, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sTopo.Close()
	wire := firstNetArc(t, s, 2)
	tr, err := sTopo.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: wire}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sTopo.Commit(); err != nil {
		t.Fatal(err)
	}
	cellArc := int32(tr.NewArcs[0])

	sAnn, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sAnn.Close()
	deltas := arcDeltas(mgr.Engine(), 0, 89, 1.07)
	for _, a := range []int32{wire, cellArc, cellArc + 1} {
		if a%89 != 0 {
			deltas = append(deltas, arcDeltas(mgr.Engine(), a, int32(mgr.Engine().NumArcs()), 1.2)...)
		}
	}
	if _, err := sAnn.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}

	// The removal rides in a batch with an insert, so ids are appended and
	// rows rewritten by one commit.
	arcs := mgr.Engine().NumArcs()
	if _, err := sTopo.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "unbuffer", Arc: cellArc},
		{Op: "buffer", Arc: firstNetArc(t, s, 9), Frac: 0.3},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sTopo.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Engine().NumArcs(); got != arcs+2 {
		t.Fatalf("committed base has %d arcs, want %d: a removal deletes no row", got, arcs+2)
	}

	res, err := sAnn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != mgr.Epoch() || res.TouchedArcs != len(deltas) {
		t.Fatalf("rebased session at epoch %d with %d deltas, want epoch %d with %d", res.Epoch, res.TouchedArcs, mgr.Epoch(), len(deltas))
	}

	cold, err := core.NewEngineScenarios(mgr.Engine().ExportState().Tables(), core.DefaultScenarios(), core.Options{TopK: 8, Workers: 2, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldMgr := server.NewManager(cold, nil, server.Options{})
	sCold, err := coldMgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sCold.Close()
	if _, err := sCold.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{"", "ss", "tt", "ff", "merged"} {
		got, err := sAnn.ScenarioSlacksInto(lane, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sCold.ScenarioSlacksInto(lane, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("lane %q: the rebased session's slacks differ from a cold manager's over the edited tables", lane)
		}
		if base, _ := mgr.BaseViewInto(lane, nil); slices.Equal(got, base.Slacks) {
			t.Fatalf("lane %q: the session's deltas move no slack — test is vacuous", lane)
		}
	}
}

// TestStructuralECOLastDelayWins: an ECO on a session holding structural
// edits previews in the overlay over its working engine, as on any session —
// and an ECO may name one raw arc twice, and a resize's estimate_eco deltas
// may name an arc the raw arcs name too. The ECO is accepted, the last delay
// named for an arc wins (raw arcs after the resize's deltas), and every lane
// reads what a cold manager over the edited tables reads.
func TestStructuralECOLastDelayWins(t *testing.T) {
	mgr, s := newKindManager(t, true, "des", 8, 2, server.Options{})
	defer mgr.Close()
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	want := mgr.Engine().ExportState().Tables()
	set := func(arc int32, rise, fall num.Dist) {
		a := &want.Arcs[arc]
		a.MeanRise, a.StdRise, a.MeanFall, a.StdFall = rise.Mean, rise.Std, fall.Mean, fall.Std
	}
	slower := func(arc int32, ps float64) num.Dist {
		a := want.Arcs[arc]
		return num.Dist{Mean: a.MeanRise + ps, Std: a.StdRise}
	}

	// Every arc the test names is on a critical path (non-zero timing
	// gradient), so every delay it sets shows in the slacks.
	probe, err := core.NewEngine(want, core.Options{TopK: 8, Workers: 2, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	probe.Run()
	probe.Backward()
	critical := func(a int32) bool { return probe.TimingGradient(a) != 0 }

	// A resize whose estimate_eco deltas name a critical arc: the raw arcs
	// re-annotate that one.
	var rz server.ResizeReq
	var deltas []refsta.ArcDelta
	overlap := int32(-1)
	for _, eco := range resizeECOs(s, 47, 40) {
		rz = eco.Resizes[0]
		cell, _ := s.Ref.D.CellByName(rz.Cell)
		lib, _ := s.Ref.Lib.CellByName(rz.Lib)
		if deltas, err = s.Ref.EstimateECO(cell, lib); err != nil {
			t.Fatal(err)
		}
		if i := slices.IndexFunc(deltas, func(dl refsta.ArcDelta) bool { return critical(dl.ArcID) }); i >= 0 {
			overlap = deltas[i].ArcID
			break
		}
	}
	if overlap < 0 {
		t.Fatal("no changelist resize touches a critical arc")
	}
	named := map[int32]bool{}
	for _, dl := range deltas {
		named[dl.ArcID] = true
	}
	var picks []int32 // the topo batch's arc, then the arc the ECO names twice
	for a := int32(0); len(picks) < 2; a++ {
		if critical(a) && !named[a] {
			picks = append(picks, a)
		}
	}

	// An annotate-only topo batch makes the session structural.
	first := server.TopoOp{Op: "annotate", Arc: picks[0], Rise: slower(picks[0], 40), Fall: slower(picks[0], 40)}
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{first}}); err != nil {
		t.Fatal(err)
	}
	set(first.Arc, first.Rise, first.Fall)
	for _, dl := range deltas {
		set(dl.ArcID, dl.Delay[0], dl.Delay[1])
	}
	twice := picks[1]
	arcs := []server.ArcECO{
		{Arc: overlap, Rise: slower(overlap, 60), Fall: slower(overlap, 60)},
		{Arc: twice, Rise: slower(twice, 10), Fall: slower(twice, 10)},
		{Arc: twice, Rise: slower(twice, 80), Fall: slower(twice, 80)},
	}
	for _, a := range arcs {
		set(a.Arc, a.Rise, a.Fall)
	}
	if _, err := sess.ApplyECO(server.ECORequest{Resizes: []server.ResizeReq{rz}, Arcs: arcs}); err != nil {
		t.Fatalf("ECO naming arc %d twice and resize arc %d again: %v", twice, overlap, err)
	}

	cold, err := core.NewEngineScenarios(want, core.DefaultScenarios(), core.Options{TopK: 8, Workers: 2, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldMgr := server.NewManager(cold, nil, server.Options{})
	for _, lane := range []string{"", "ss", "tt", "ff", "merged"} {
		got, err := sess.ScenarioSlacksInto(lane, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, err := coldMgr.BaseViewInto(lane, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, w.Slacks) {
			t.Fatalf("lane %q: the session's slacks differ from a cold manager's over the edited tables", lane)
		}
		if base, _ := mgr.BaseViewInto(lane, nil); slices.Equal(got, base.Slacks) {
			t.Fatalf("lane %q: the ECO moves no slack — test is vacuous", lane)
		}
	}
}

// TestTopoSnapshotSurvivesStructuralCommit: POST /admin/snapshot after a
// structural commit persists the edited topology — a cold engine stood up
// from the stored state reproduces the committed slack vector exactly.
func TestTopoSnapshotSurvivesStructuralCommit(t *testing.T) {
	cache, err := snap.NewCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr, s := newTestManager(t, "des", 8, 2, server.Options{
		Snapshots: cache,
		Boot:      &server.BootInfo{Mode: "cold", SnapshotKey: "topo-test"},
	})
	defer mgr.Close()

	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Two batches: same-net buffer ops would claim the same driver arcs in
	// one batch, and multi-batch sessions must commit whole.
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 0), Frac: 0.6},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
		{Op: "buffer", Arc: firstNetArc(t, s, 3)},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}

	if _, _, _, err := mgr.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	snp, err := cache.Load("topo-test")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.NewEngineFromState(snp.State, core.Options{TopK: 8, Workers: 2, Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.Run()

	if e2.NumArcs() != mgr.Engine().NumArcs() || e2.NumPins() != mgr.Engine().NumPins() {
		t.Fatalf("warm-boot shape %d arcs/%d pins, committed %d/%d",
			e2.NumArcs(), e2.NumPins(), mgr.Engine().NumArcs(), mgr.Engine().NumPins())
	}
	want := mgr.Engine().Slacks()
	got := e2.Slacks()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("endpoint %d: warm-boot slack %v, committed %v", i, got[i], want[i])
		}
	}
}
