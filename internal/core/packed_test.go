package core

// The packed-tail contract (DESIGN.md §9). A merge tracks each destination
// queue's live count and blanks the unused tail once, after it — so whoever
// rebuilds a queue owes its readers (slack evaluation, the backward pass,
// child merges, hier's TopEntries users), all of which stop at the first
// noSP: n live entries in descending order with unique startpoints, then
// exactly -Inf / noSP up to K. These tests hold every writer to it.

import (
	"fmt"
	"math"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/liberty"
)

// checkPacked verifies the contract on one K-slot queue.
func checkPacked(arr []float64, sps []int32) error {
	n := len(sps)
	for i, sp := range sps {
		if sp == noSP {
			n = i
			break
		}
	}
	for i := 0; i < n; i++ {
		if math.IsInf(arr[i], 0) || math.IsNaN(arr[i]) {
			return fmt.Errorf("live slot %d holds arrival %v", i, arr[i])
		}
		if i > 0 && arr[i-1] < arr[i] {
			return fmt.Errorf("slots %d,%d ascend: %v < %v", i-1, i, arr[i-1], arr[i])
		}
		for j := 0; j < i; j++ {
			if sps[j] == sps[i] {
				return fmt.Errorf("startpoint %d queued at slots %d and %d", sps[i], j, i)
			}
		}
	}
	for i := n; i < len(sps); i++ {
		if sps[i] != noSP || !math.IsInf(arr[i], -1) {
			return fmt.Errorf("slot %d of the tail (live count %d) holds arr=%v sp=%d", i, n, arr[i], sps[i])
		}
	}
	return nil
}

// assertPacked checks every (rf, pin, lane) queue that view resolves.
func assertPacked(t *testing.T, what string, e *Engine, view func(rf int, p int32) (*queues, int)) {
	t.Helper()
	k := e.opt.TopK
	for rf := 0; rf < 2; rf++ {
		for p := int32(0); p < int32(e.numPins); p++ {
			q, b := view(rf, p)
			for s := range e.lanes {
				if err := checkPacked(q.arr[b+s*k:b+(s+1)*k], q.sp[b+s*k:b+(s+1)*k]); err != nil {
					t.Fatalf("%s: rf %d pin %d lane %d: %v", what, rf, p, s, err)
				}
			}
		}
	}
}

// assertEnginePacked checks the engine's late and early tensors.
func assertEnginePacked(t *testing.T, what string, e *Engine) {
	t.Helper()
	assertPacked(t, what+" (late)", e, e.top.queues)
	assertPacked(t, what+" (early)", e, e.hold.queues)
}

// structuralEdit returns tab, carrying e's current annotations, with one fan-in
// arc of a multi-fan-in pin cut — downstream queues lose startpoints, so live
// counts shrink and former live slots must be blanked — and one net arc split
// by an appended buffer (two new pins, whose rows start unwritten), plus the
// seed pins of the edit.
func structuralEdit(t *testing.T, tab *circuitops.Tables, e *Engine) (*circuitops.Tables, []int32) {
	t.Helper()
	fanin := make(map[int32]int)
	for _, a := range tab.Arcs {
		fanin[a.To]++
	}
	cut, split := -1, -1
	for i, a := range tab.Arcs {
		if cut < 0 && a.Kind == 0 && fanin[a.To] >= 2 {
			cut = i
		}
		if a.Kind == 1 {
			split = i // the last net arc: far from the cut
		}
	}
	if cut < 0 || split < 0 {
		t.Fatal("test design has no arc to cut or split")
	}
	out := *tab
	out.Arcs = nil
	bufIn, bufOut := int32(tab.NumPins), int32(tab.NumPins+1)
	out.NumPins += 2
	for i, a := range tab.Arcs {
		rise, fall := e.ArcDelay(int32(i), 0), e.ArcDelay(int32(i), 1)
		a.MeanRise, a.StdRise, a.MeanFall, a.StdFall = rise.Mean, rise.Std, fall.Mean, fall.Std
		switch i {
		case cut:
		case split:
			in, drv := a, a
			in.To = bufIn
			drv.From = bufOut
			out.Arcs = append(out.Arcs, in, circuitops.ArcRow{
				From: bufIn, To: bufOut, Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: a.Cell, Net: -1,
				MeanRise: 14, StdRise: 1.5, MeanFall: 16, StdFall: 1.7,
			}, drv)
		default:
			out.Arcs = append(out.Arcs, a)
		}
	}
	return &out, []int32{tab.Arcs[cut].To, bufIn, bufOut, tab.Arcs[split].To}
}

func TestPackedTailInvariant(t *testing.T) {
	h := buildHarness(t, testSpec(84))
	for _, lc := range laneCases {
		for _, k := range []int{1, 6, 32} {
			t.Run(fmt.Sprintf("%s/K%d", lc.name, k), func(t *testing.T) {
				opt := Options{TopK: k, Hold: true, Workers: 2, Grain: 8}
				e := newLaneEngine(t, h.tab, lc.lanes, opt)
				e.Run()
				assertEnginePacked(t, "first Propagate", e)
				e.Propagate() // over rows that now hold a previous pass
				assertEnginePacked(t, "second Propagate", e)

				moved := perturb(e, 2, 29, 1.3, 1.2)
				applyToEngine(e, moved)
				var arcs []int32
				for arc := range moved {
					arcs = append(arcs, arc)
				}
				e.PropagateIncremental(arcs)
				assertEnginePacked(t, "PropagateIncremental", e)

				o := NewOverlay(e)
				deltas := perturb(e, 5, 23, 0.7, 0.9)
				applyToOverlay(o, deltas)
				if o.Stats().OverlayPins == 0 {
					t.Fatal("overlay preview recomputed no pin — test is vacuous")
				}
				assertPacked(t, "overlay preview", e, o.queues)
				o.Reset()
				assertPacked(t, "overlay rollback", e, o.queues)
				applyToOverlay(o, deltas) // recycled storage seeded from the base
				assertPacked(t, "overlay re-preview", e, o.queues)
				o.Commit()
				assertEnginePacked(t, "overlay commit", e)

				edited, seeds := structuralEdit(t, h.tab, e)
				st, _, err := CompileIncremental(edited, e.st, seeds)
				if err != nil {
					t.Fatal(err)
				}
				ne, err := e.Reseed(st, seeds, false)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ne.Close)
				assertEnginePacked(t, "structural Reseed", ne)

				cold, err := NewEngineLanes(st, lc.lanes, opt)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cold.Close)
				cold.Run()
				for rf := 0; rf < 2; rf++ {
					for p := int32(0); p < int32(ne.numPins); p++ {
						for _, qs := range [][2]*queues{{ne.top.q, cold.top.q}, {ne.hold.q, cold.hold.q}} {
							a, b := ne.base(rf, p), cold.base(rf, p)
							if !sameLive(qs[0], a, qs[1], b, ne.qstride, k) {
								t.Fatalf("rf %d pin %d: reseeded queues differ from a cold engine's\n got %v %v\nwant %v %v", rf, p,
									qs[0].arr[a:a+ne.qstride], qs[0].sp[a:a+ne.qstride], qs[1].arr[b:b+ne.qstride], qs[1].sp[b:b+ne.qstride])
							}
						}
					}
				}
			})
		}
	}
}

// sameLive compares two rows of lane queues slot for slot on the ordering
// plane and the startpoints, and on the payload planes where a slot is live
// (a tail slot's mean and sigma are whatever the row held before).
func sameLive(q *queues, a int, o *queues, b, stride, k int) bool {
	for i := 0; i < stride; i++ {
		if q.sp[a+i] != o.sp[b+i] || q.arr[a+i] != o.arr[b+i] {
			return false
		}
		if q.sp[a+i] != noSP && (q.mean[a+i] != o.mean[b+i] || q.std[a+i] != o.std[b+i]) {
			return false
		}
	}
	return true
}
