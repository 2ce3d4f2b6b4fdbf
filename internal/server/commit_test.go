package server_test

import (
	"fmt"
	"testing"

	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/server"
)

// TestCommitAdoptsPreview counts what a session commit launches, with hold
// off (as every served daemon runs) and on. Over a current preview it adopts:
// no cone wave of either kind, and a slack pass over exactly the endpoints the
// preview re-evaluated — with hold on, and a hold slack pass over exactly the
// endpoints whose early queues it moved, which a core overlay's commit of the
// same deltas over a twin engine counts. Over a preview another session's
// commit made stale it runs one overlay wave — the rebase's re-preview — and
// adopts that.
func TestCommitAdoptsPreview(t *testing.T) {
	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("hold=%v", hold), func(t *testing.T) { commitAdoptsPreview(t, hold) })
	}
}

func commitAdoptsPreview(t *testing.T, hold bool) {
	s := buildSetup(t, "block-2")
	tr := obs.NewTracer()
	e, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: 2, Tracer: tr, Hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats := e.EnableKernelStats()
	mgr := server.NewManager(e, s.Ref, server.Options{})
	defer mgr.Close()
	// Kernel tags of the engine's in-place cone wave and of its slack passes.
	const incremental, slack, holdSlack = "incremental", "slack", "hold-slack"
	waves := func(tag string) int64 {
		for _, p := range tr.Totals() {
			if p.Name == tag {
				return p.Count
			}
		}
		return 0
	}

	a, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyDeltas(arcDeltas(e, 5, 211, 1.4)); err != nil {
		t.Fatal(err)
	}
	res, err := a.ApplyDeltas(arcDeltas(e, 2, 173, 1.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) == 0 {
		t.Fatal("the preview changed no endpoint — test is vacuous")
	}
	var holdMoved int64 // endpoints whose early queues a's preview moved
	if hold {
		twin, err := core.NewEngine(s.Tab, core.Options{TopK: 8, Workers: 2, Hold: true})
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		twin.Run()
		twin.RefreshHoldSlacks()
		twinStats := twin.EnableKernelStats()
		ov := core.NewOverlay(twin)
		for _, dl := range arcDeltas(e, 2, 173, 1.3) {
			ov.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
			ov.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
		}
		ov.Propagate()
		ov.Commit()
		if holdMoved = twinStats.KernelSpans(holdSlack); holdMoved == 0 {
			t.Fatal("the preview moved no early queue at an endpoint — the hold case is vacuous")
		}
	}

	ov0, lv0, slack0, hold0 := waves(core.KernelOverlay), stats.KernelLaunches(core.KernelOverlay), stats.KernelSpans(slack), stats.KernelSpans(holdSlack)
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := stats.KernelLaunches(incremental); n != 0 || waves(incremental) != 0 {
		t.Fatalf("a commit over a current preview launched %d in-place wave levels", n)
	}
	if got, lv := waves(core.KernelOverlay)-ov0, stats.KernelLaunches(core.KernelOverlay)-lv0; got != 0 || lv != 0 {
		t.Fatalf("a commit over a current preview ran %d overlay waves (%d level launches), want 0", got, lv)
	}
	if got := stats.KernelSpans(slack) - slack0; got != int64(len(res.Changed)) {
		t.Fatalf("a commit over a current preview evaluated %d endpoint slacks, want the preview's %d", got, len(res.Changed))
	}
	if got := stats.KernelSpans(holdSlack) - hold0; got != holdMoved {
		t.Fatalf("a commit over a current preview evaluated %d hold slacks, want the %d endpoints whose early queues it moved", got, holdMoved)
	}

	ov0 = waves(core.KernelOverlay)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := waves(core.KernelOverlay) - ov0; got != 1 {
		t.Fatalf("a commit over a stale preview ran %d overlay waves, want 1", got)
	}
	if n := stats.KernelLaunches(incremental); n != 0 || waves(incremental) != 0 {
		t.Fatalf("a commit over a stale preview launched %d in-place wave levels", n)
	}
}
