package core

// The packed-tail contract (DESIGN.md §9). A merge tracks each destination
// queue's live count and blanks the unused tail once, after it — so whoever
// rebuilds a queue owes its readers (slack evaluation, the backward pass,
// child merges, hier's TopEntries users), all of which stop at the first
// noSP: n live entries in descending order of the view's key (orderKey, the
// production helper, under the view's sign) with unique startpoints, then
// noSP up to K. These tests hold every writer to it.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/liberty"
)

// checkPacked verifies the contract on one K-slot queue ordered under
// (sign, ns).
func checkPacked(mean, std []float64, sps []int32, sign, ns float64) error {
	n := len(sps)
	for i, sp := range sps {
		if sp == noSP {
			n = i
			break
		}
	}
	prev := math.Inf(1)
	for i := 0; i < n; i++ {
		key := orderKey(mean[i], std[i], sign, ns)
		if math.IsInf(key, 0) || math.IsNaN(key) {
			return fmt.Errorf("live slot %d holds key %v", i, key)
		}
		if prev < key {
			return fmt.Errorf("slots %d,%d ascend: %v < %v", i-1, i, prev, key)
		}
		prev = key
		for j := 0; j < i; j++ {
			if sps[j] == sps[i] {
				return fmt.Errorf("startpoint %d queued at slots %d and %d", sps[i], j, i)
			}
		}
	}
	for i := n; i < len(sps); i++ {
		if sps[i] != noSP {
			return fmt.Errorf("slot %d of the tail (live count %d) holds sp=%d", i, n, sps[i])
		}
	}
	return nil
}

// assertPacked checks every (rf, pin, lane) queue that view resolves, ordered
// with sign (+1 a late view, -1 the early one).
func assertPacked(t *testing.T, what string, e *Engine, view func(rf int, p int32) (*queues, int), sign float64) {
	t.Helper()
	k := e.opt.TopK
	for rf := 0; rf < 2; rf++ {
		for p := int32(0); p < int32(e.numPins); p++ {
			q, b := view(rf, p)
			for s := range e.lanes {
				lo, hi := b+s*k, b+(s+1)*k
				if err := checkPacked(q.mean[lo:hi], q.std[lo:hi], q.sp[lo:hi], sign, sign*e.nSigma); err != nil {
					t.Fatalf("%s: rf %d pin %d lane %d: %v", what, rf, p, s, err)
				}
			}
		}
	}
}

// assertEnginePacked checks the engine's late and early tensors.
func assertEnginePacked(t *testing.T, what string, e *Engine) {
	t.Helper()
	assertPacked(t, what+" (late)", e, e.top.queues, 1)
	assertPacked(t, what+" (early)", e, e.hold.queues, -1)
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
				assertPacked(t, "overlay preview", e, o.queues, 1)
				o.Reset()
				assertPacked(t, "overlay rollback", e, o.queues, 1)
				applyToOverlay(o, deltas) // into recycled rows, tails and all
				assertPacked(t, "overlay re-preview", e, o.queues, 1)
				o.Commit()
				assertEnginePacked(t, "overlay commit", e)

				// Two structural edits in a row, each appending pins and
				// shifting levels: the first reseeds e into a new engine, the
				// second reseeds that private engine in place.
				tab, cur := h.tab, e
				for _, inPlace := range []bool{false, true} {
					what := fmt.Sprintf("structural Reseed (in place: %v)", inPlace)
					edited, seeds := structuralEdit(t, tab, cur)
					oldRow, oldLevel := slices.Clone(cur.row), slices.Clone(cur.lv.Level)
					st, _, err := CompileIncremental(edited, cur.st, seeds)
					if err != nil {
						t.Fatal(err)
					}
					ne, err := cur.Reseed(st, seeds, inPlace)
					if err != nil {
						t.Fatal(err)
					}
					if inPlace != (ne == cur) {
						t.Fatalf("%s returned the wrong engine", what)
					}
					if !inPlace {
						t.Cleanup(ne.Close)
						if !slices.Equal(cur.row, oldRow) {
							t.Fatalf("%s changed the parent engine's row map", what)
						}
					}
					assertEnginePacked(t, what, ne)
					assertRowsKept(t, what, ne, oldRow)
					if slices.Equal(ne.lv.Level[:len(oldLevel)], oldLevel) {
						t.Fatalf("%s: the edit shifted no level — the row check is vacuous", what)
					}

					cold, err := NewEngineLanes(st, lc.lanes, opt)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(cold.Close)
					cold.Run()
					for rf := 0; rf < 2; rf++ {
						for p := int32(0); p < int32(ne.numPins); p++ {
							a, b := ne.base(rf, p), cold.base(rf, p)
							if !sameLive(ne.top.q, a, cold.top.q, b, ne.qstride, 1, ne.nSigma) ||
								!sameLive(ne.hold.q, a, cold.hold.q, b, ne.qstride, -1, -ne.nSigma) {
								t.Fatalf("%s: rf %d pin %d: reseeded queues differ from a cold engine's", what, rf, p)
							}
						}
					}
					tab, cur = edited, ne
				}
			})
		}
	}
}

// assertRowsKept holds a reseeded engine's row map to Reseed's contract: every
// pin the previous map covered keeps its row, appended pins take the identity
// tail, and the whole is a bijection onto [0, numPins).
func assertRowsKept(t *testing.T, what string, ne *Engine, oldRow []int32) {
	t.Helper()
	if len(ne.row) != ne.numPins || ne.numPins <= len(oldRow) {
		t.Fatalf("%s: row map covers %d pins of %d (was %d) — no pin appended?", what, len(ne.row), ne.numPins, len(oldRow))
	}
	seen := make([]bool, ne.numPins)
	for p, r := range ne.row {
		switch {
		case p < len(oldRow) && r != oldRow[p]:
			t.Fatalf("%s: pin %d moved from row %d to %d", what, p, oldRow[p], r)
		case p >= len(oldRow) && int(r) != p:
			t.Fatalf("%s: appended pin %d has row %d, not the identity tail", what, p, r)
		case r < 0 || int(r) >= ne.numPins || seen[r]:
			t.Fatalf("%s: row %d (pin %d) is out of range or taken", what, r, p)
		}
		seen[r] = true
	}
}

// sameLive compares two rows of lane queues slot for slot on the startpoints
// and, where a slot is live, on the stored planes and the ordering key the
// kernels derive from them under (sign, ns); a tail slot's mean and sigma are
// whatever the row held before.
func sameLive(q *queues, a int, o *queues, b, stride int, sign, ns float64) bool {
	for i := 0; i < stride; i++ {
		if q.sp[a+i] != o.sp[b+i] {
			return false
		}
		if q.sp[a+i] == noSP {
			continue
		}
		if q.mean[a+i] != o.mean[b+i] || q.std[a+i] != o.std[b+i] ||
			orderKey(q.mean[a+i], q.std[a+i], sign, ns) != orderKey(o.mean[b+i], o.std[b+i], sign, ns) {
			return false
		}
	}
	return true
}
