package core

// Allocation-discipline unit tests (DESIGN.md §12): the serving hot paths —
// an overlay ECO preview over a warm cone and an incremental forward
// re-propagation — must settle at zero heap allocations per operation once
// their scratch and freelists are populated, and the full passes (forward,
// slack, backward) must launch their levels without allocating. These run on the small
// generated test design so they stay in the fast tier-1 set; the benchmark's
// allocs_per_op and core.kernel_allocs_per_run read the same paths on block-1.

import (
	"testing"

	"insta/internal/obs"
)

// allocEps absorbs a one-off allocation AllocsPerRun may attribute to the
// harness itself (a timer tick landing a pooled object, a map rehash on the
// first measured run) without letting a real per-op allocation through.
const allocEps = 0.5

func TestOverlayPreviewAllocFree(t *testing.T) {
	h := buildHarness(t, testSpec(81))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2})
			e.Run()

			deltas := perturb(e, 3, 37, 1.2, 1.1)
			o := NewOverlay(e)
			preview := func() {
				o.Reset() // recycle queue storage and slack slots
				applyToOverlay(o, deltas)
				_ = o.LaneWNS(len(lc.lanes) - 1)
			}
			preview() // warm: populates the pin overlay set, scratch and freelists
			if a := testing.AllocsPerRun(20, preview); a > allocEps {
				t.Errorf("warm overlay preview: %.1f allocs/op, want 0", a)
			}
		})
	}
}

func TestIncrementalPropagateAllocFree(t *testing.T) {
	h := buildHarness(t, testSpec(82))
	for _, lc := range laneCases {
		t.Run(lc.name, func(t *testing.T) {
			e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Workers: 2})
			e.Run()

			// Two alternating annotations so every measured op walks a real
			// changed cone instead of converging at the first level.
			arc := int32(3)
			arcs := []int32{arc}
			d0 := e.ArcDelay(arc, 0)
			d1 := d0
			d1.Mean *= 1.3
			flip := false
			reprop := func() {
				d := d0
				if flip {
					d = d1
				}
				flip = !flip
				e.SetArcDelay(arc, 0, d)
				e.PropagateIncremental(arcs)
			}
			reprop()
			reprop() // warm both cone shapes
			if a := testing.AllocsPerRun(20, reprop); a > allocEps {
				t.Errorf("warm incremental re-prop: %.1f allocs/op, want 0", a)
			}
		})
	}
}

// TestFullPropagateAllocFree pins the full passes — the op of the paper's
// Table I — at zero allocations: their per-level launches go through kernels
// bound once with the engine, so a pass costs no closure per level. Each lane
// count runs bare and with a disabled tracer attached, the configuration every
// served engine pays: a span that allocated while switched off would be a
// per-level cost on the hot path.
func TestFullPropagateAllocFree(t *testing.T) {
	h := buildHarness(t, testSpec(83))
	off := obs.NewTracer()
	off.Disable()
	for _, lc := range laneCases {
		for _, tc := range []struct {
			name   string
			tracer *obs.Tracer
		}{{lc.name, nil}, {lc.name + "/tracer-off", off}} {
			t.Run(tc.name, func(t *testing.T) {
				// Grain 4 splits the wider levels over both workers and fuses the
				// narrow ones, so the level, fused and inline launches all run.
				e := newLaneEngine(t, h.tab, lc.lanes, Options{TopK: 6, Hold: true, Workers: 2, Grain: 4, Tracer: tc.tracer})
				e.Run()
				e.Backward() // allocates the gradient state once
				for name, pass := range map[string]func(){
					"Propagate":         e.Propagate,
					"RefreshSlacks":     e.RefreshSlacks,
					"RefreshHoldSlacks": e.RefreshHoldSlacks,
					"Backward":          e.Backward,
				} {
					if a := testing.AllocsPerRun(20, pass); a > allocEps {
						t.Errorf("%s: %.1f allocs/op, want 0", name, a)
					}
				}
			})
		}
	}
}
