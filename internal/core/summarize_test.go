package core

import (
	"fmt"
	"math"
	"testing"
)

// TestSummarizeIsTheFolds: Summarize's one scan gives, bit for bit, what a
// per-lane scan of the overlay's slacks folds with the base engine's WNS and
// TNS — and the merged figures over the per-endpoint worst lane — and so do
// the four accessors that read it. Checked with one and three lanes, on an
// empty overlay, a small and a 512-arc preview, and an overlay over a
// structural working engine.
func TestSummarizeIsTheFolds(t *testing.T) {
	spec := testSpec(95)
	spec.Groups, spec.Width = 6, 12 // room for a 512-arc batch
	spec.Period = 200               // and violations for the folds to add up
	h := buildHarness(t, spec)
	for _, lc := range laneCases[:2] {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2})
			e.Run()
			check := func(what string, o *Overlay) {
				t.Helper()
				S := e.Lanes()
				lanes := overlaySlacks(o)
				merged := make([]float64, len(lanes[0]))
				for i := range merged {
					merged[i] = math.Inf(1)
					for s := range lanes {
						merged[i] = min(merged[i], lanes[s][i])
					}
				}
				wns, tns := make([]float64, S), make([]float64, S)
				for s := range wns { // stale figures must not leak into the folds
					wns[s], tns[s] = -1e9, -1e9
				}
				mw, mt := o.Summarize(wns, tns)
				same := func(name string, got, want float64) {
					t.Helper()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: %s = %v, the fold gives %v", what, name, got, want)
					}
				}
				for s := 0; s < S; s++ {
					same(fmt.Sprintf("lane %d WNS", s), wns[s], WNS(lanes[s]))
					same(fmt.Sprintf("lane %d TNS", s), tns[s], TNS(lanes[s]))
					same(fmt.Sprintf("LaneWNS(%d)", s), o.LaneWNS(s), wns[s])
					same(fmt.Sprintf("LaneTNS(%d)", s), o.LaneTNS(s), tns[s])
				}
				if mw >= 0 {
					t.Fatalf("%s: nothing violates — the folds are vacuous", what)
				}
				same("merged WNS", mw, WNS(merged))
				same("merged TNS", mt, TNS(merged))
				same("MergedWNS", o.MergedWNS(), mw)
			}

			o := NewOverlay(e)
			check("empty", o)
			applyToOverlay(o, perturb(e, 2, 97, 1.4, 1.2))
			if len(o.ChangedEndpointsView()) == 0 {
				t.Fatal("the small preview changed no endpoint — test is vacuous")
			}
			check("small", o)

			o.Reset()
			const arcs = 512
			if e.NumArcs() < arcs {
				t.Fatalf("test design has %d arcs, fewer than %d", e.NumArcs(), arcs)
			}
			applyToOverlay(o, perturb(e, 0, int32(e.NumArcs()/arcs), 1.3, 1.1))
			if got := o.Stats().TouchedArcs; got < arcs {
				t.Fatalf("the large preview touched %d arcs", got)
			}
			check("512 arcs", o)

			edited, seeds := structuralEdit(t, h.tab, e)
			st, err := Compile(edited)
			if err != nil {
				t.Fatal(err)
			}
			work := reseedOnto(e, st, seeds, true)
			t.Cleanup(work.Close)
			o.Rebase(work)
			o.Propagate()
			check("over a structural working engine", o)
			o.Release()
		})
	}
}
