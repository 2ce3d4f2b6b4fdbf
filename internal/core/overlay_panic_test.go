package core

import (
	"sync/atomic"
	"testing"
)

// TestOverlayPanicKeepsRowCount: a preview whose cone wave panics part-way —
// its rebuild hook, here, after 20 pins — is raised on the caller with the
// rows the wave took already counted in the engine's overlay row figure, so a
// Reset of the abandoned overlay, which is what the serving layer does to a
// poisoned session, leaves exactly the other overlays' rows counted.
func TestOverlayPanicKeepsRowCount(t *testing.T) {
	h := buildHarness(t, testSpec(94))
	e := newLaneEngine(t, h.tab, laneCases[1].lanes, Options{TopK: 6, Workers: 2, Grain: 8})
	e.Run()
	other := NewOverlay(e)
	applyToOverlay(other, perturb(e, 1, 37, 1.2, 1.1))
	want := e.overlayRows.Load()
	if want == 0 {
		t.Fatal("the other overlay holds no rows — the check is vacuous")
	}

	o := NewOverlay(e)
	applyToOverlay(o, perturb(e, 4, 43, 0.9, 1.0))
	held := o.rowsInUse()
	rebuild, n := o.scratch.rebuild, atomic.Int32{}
	o.scratch.rebuild = func(i int, p int32, ms *mergeScratch) uint8 {
		if n.Add(1) > 20 {
			panic("rebuild hook")
		}
		return rebuild(i, p, ms)
	}
	panicked := func() (p any) {
		defer func() { p = recover() }()
		applyToOverlay(o, perturb(e, 2, 11, 1.3, 1.2))
		return nil
	}()
	if panicked == nil {
		t.Fatal("the wave did not panic")
	}
	if o.rowsInUse() <= held {
		t.Fatalf("the panicking wave took no rows (%d in use, %d before) — the check is vacuous", o.rowsInUse(), held)
	}
	if got := e.overlayRows.Load(); got != want+int64(o.rowsInUse()) {
		t.Fatalf("after the panic the engine counts %d rows; the overlays hold %d + %d", got, want, o.rowsInUse())
	}
	o.Reset()
	if got := e.overlayRows.Load(); got != want {
		t.Fatalf("after Reset the engine counts %d rows, the other overlay holds %d", got, want)
	}
}
