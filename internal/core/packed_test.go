package core

// The packed-tail contract (DESIGN.md §9). A merge tracks each destination
// queue's live count and blanks the unused tail once, after it — so whoever
// rebuilds a queue owes its readers (slack evaluation, the backward pass,
// child merges, hier's TopEntries users), all of which stop at the first
// noSP: n live entries in descending order of the view's key (orderKey, the
// production helper, under the view's sign) with unique startpoints, then
// noSP up to the pin's capacity. These tests hold every writer to it.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/liberty"
)

// checkPacked verifies the contract on one queue, as long as its pin's
// capacity, ordered under (sign, ns).
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

// assertPacked checks every (rf, pin, lane) queue that v shows — a derived
// pin's replayed — ordered with sign (+1 a late view, -1 the early one), over
// the queue length it has, which must be the pin's capacity. A dead pin shows
// none (TestDeadPinReads holds its rebuilt queues to a live engine's).
func assertPacked(t *testing.T, what string, e *Engine, v *view, sign float64) {
	t.Helper()
	ms := new(mergeScratch)
	for p := int32(0); p < int32(e.st.NumPins); p++ {
		if e.rows[p].dead {
			continue
		}
		r := v.ref(sign, p, ms, 1)
		if r.k != int(e.rows[p].k) || r.k < 1 || r.k > e.opt.TopK {
			t.Fatalf("%s: pin %d: queue length %d, capacity %d, K %d", what, p, r.k, e.rows[p].k, e.opt.TopK)
		}
		for rf := 0; rf < 2; rf++ {
			for s := range e.scns {
				lo, hi := r.b[rf]+s*r.k, r.b[rf]+(s+1)*r.k
				if err := checkPacked(r.q.mean[lo:hi], r.q.std[lo:hi], r.q.sp[lo:hi], sign, sign*e.st.NSigma); err != nil {
					t.Fatalf("%s: rf %d pin %d lane %d: %v", what, rf, p, s, err)
				}
			}
		}
	}
}

// assertEnginePacked checks the engine's late and early tensors.
func assertEnginePacked(t *testing.T, what string, e *Engine) {
	t.Helper()
	assertPacked(t, what+" (late)", e, &e.top, 1)
	assertPacked(t, what+" (early)", e, &e.hold.view, -1)
}

// shownScratch is the replay scratch sameShown borrows.
var shownScratch = sync.Pool{New: func() any { return new(mergeScratch) }}

// sameShown reports whether pin p shows the same queues, live entries and
// capacity, through a and b, ordered under sign. A pin dead in both shows
// nothing — no pass keeps its queues, and LaneTopEntries rebuilds them
// (TestDeadPinReads) — so it only has to be dead in both.
func sameShown(a, b *view, sign float64, p int32) bool {
	if a.e.rows[p].dead || b.e.rows[p].dead {
		return a.e.rows[p].dead == b.e.rows[p].dead
	}
	ms := shownScratch.Get().(*mergeScratch)
	defer shownScratch.Put(ms)
	x, y := a.ref(sign, p, ms, 1), b.ref(sign, p, ms, 2)
	n := len(a.e.scns) * x.k
	return x.k == y.k &&
		sameLive(x.q, x.b[0], y.q, y.b[0], n, sign, sign*a.e.st.NSigma) &&
		sameLive(x.q, x.b[1], y.q, y.b[1], n, sign, sign*a.e.st.NSigma)
}

// structuralEdit returns tab, carrying e's current annotations, with one fan-in
// arc of a multi-fan-in pin cut — downstream queues lose startpoints, so live
// counts shrink and former live slots must be blanked — and one net arc split
// by an appended buffer (two new pins, whose rows start unwritten), plus the
// seed pins of the edit — the cut arc's driver among them, as Reseed asks of
// a pin an edited arc leaves.
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
	return &out, []int32{tab.Arcs[cut].To, tab.Arcs[cut].From, bufIn, bufOut, tab.Arcs[split].To}
}

// reseedOnto reseeds e onto st — in place, or in a Fork of e with fork set,
// which leaves e as it was — and returns the engine it reseeded. st need not
// come from a patch: a structural edit the patch would refuse (a cut arc
// renumbers the arcs after it) still holds reseed to a cold engine over st.
func reseedOnto(e *Engine, st *State, seeds []int32, fork bool) *Engine {
	if fork {
		e = e.Fork()
	}
	e.reseed(st, seeds)
	return e
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

				o := NewOverlay(e)
				applyToOverlay(o, perturb(e, 2, 29, 1.3, 1.2))
				o.Commit()
				assertEnginePacked(t, "first overlay commit", e)

				deltas := perturb(e, 5, 23, 0.7, 0.9)
				applyToOverlay(o, deltas)
				if o.Stats().OverlayPins == 0 {
					t.Fatal("overlay preview recomputed no pin — test is vacuous")
				}
				assertPacked(t, "overlay preview", e, &o.view, 1)
				o.Reset()
				assertPacked(t, "overlay rollback", e, &o.view, 1)
				applyToOverlay(o, deltas) // into recycled rows, tails and all
				assertPacked(t, "overlay re-preview", e, &o.view, 1)
				o.Commit()
				assertEnginePacked(t, "overlay commit", e)

				// Two structural edits in a row, each appending pins and
				// shifting levels: the first reseeds a fork of e, the second
				// reseeds that private engine in place.
				tab, cur := h.tab, e
				for _, fork := range []bool{true, false} {
					what := fmt.Sprintf("structural reseed (fork: %v)", fork)
					edited, seeds := structuralEdit(t, tab, cur)
					oldRows, oldUnits, oldLevel := slices.Clone(cur.rows), cur.rowUnits, slices.Clone(cur.st.LvLevel)
					st, err := Compile(edited)
					if err != nil {
						t.Fatal(err)
					}
					ne := reseedOnto(cur, st, seeds, fork)
					if fork == (ne == cur) {
						t.Fatalf("%s returned the wrong engine", what)
					}
					if fork {
						t.Cleanup(ne.Close)
						if !slices.Equal(cur.rows, oldRows) || cur.rowUnits != oldUnits {
							t.Fatalf("%s changed the parent engine's rows", what)
						}
					}
					assertEnginePacked(t, what, ne)
					assertRowsKept(t, what, ne, oldRows, oldUnits)
					if slices.Equal(ne.st.LvLevel[:len(oldLevel)], oldLevel) {
						t.Fatalf("%s: the edit shifted no level — the row check is vacuous", what)
					}

					cold, err := NewEngineLanes(st, lc.lanes, opt)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(cold.Close)
					cold.Run()
					for p := int32(0); p < int32(ne.st.NumPins); p++ {
						if !sameShown(&ne.top, &cold.top, 1, p) || !sameShown(&ne.hold.view, &cold.hold.view, -1, p) {
							t.Fatalf("%s: pin %d: reseeded queues differ from a cold engine's", what, p)
						}
					}
					tab, cur = edited, ne
				}
			})
		}
	}
}

// assertRowsKept holds a reseeded engine's rows to reseed's contract: every
// pin's capacity is rowCap and its status — dead (liveRule) or derived
// (derivedPin) — what the edited state says; a
// pin the previous layout covered keeps its row's offset while the slots it
// stores fit there; every other pin that stores slots — appended, or grown
// out of its row — has a fresh row at the tail, the fresh rows following one
// another in (level, pin) order from where the previous layout ended (a
// derived pin stores none, so it has no place to check); and no two rows share
// a unit, all inside the allocation.
func assertRowsKept(t *testing.T, what string, ne *Engine, oldRows []rowSpan, oldUnits int) {
	t.Helper()
	if len(ne.rows) != ne.st.NumPins || ne.st.NumPins <= len(oldRows) {
		t.Fatalf("%s: rows cover %d pins of %d (was %d) — no pin appended?", what, len(ne.rows), ne.st.NumPins, len(oldRows))
	}
	next := int32(oldUnits)
	live := liveRule(ne.st)
	for l := 0; l < ne.st.NumLevels; l++ {
		for _, p := range sortedPins(ne.st.levelPins(l)) {
			r := ne.rows[p]
			if want := rowCap(ne.st, ne.rows, p, ne.opt.TopK); r.k != want {
				t.Fatalf("%s: pin %d has capacity %d, rowCap says %d", what, p, r.k, want)
			}
			if r.dead == live[p] {
				t.Fatalf("%s: pin %d dead %v, but an endpoint is reachable: %v", what, p, r.dead, live[p])
			}
			if want := live[p] && derivedPin(ne.st, p); r.derived != want {
				t.Fatalf("%s: pin %d derived %v, derivedPin says %v", what, p, r.derived, want)
			}
			kept := int(p) < len(oldRows) && r.slots() <= oldRows[p].slots()
			switch {
			case kept && r.off != oldRows[p].off:
				t.Fatalf("%s: pin %d moved from unit %d to %d though its %d slots fit its row of %d", what, p, oldRows[p].off, r.off, r.slots(), oldRows[p].slots())
			case !kept && r.slots() > 0 && r.off != next:
				t.Fatalf("%s: pin %d has a fresh row at unit %d, not the next tail unit %d", what, p, r.off, next)
			}
			if !kept {
				next += r.slots()
			}
		}
	}
	if int(next) != ne.rowUnits || ne.rowUnits > ne.capUnits {
		t.Fatalf("%s: rows end at unit %d, engine says %d of %d allocated", what, next, ne.rowUnits, ne.capUnits)
	}
	owner := make([]int32, ne.rowUnits)
	for p, r := range ne.rows {
		for u := r.off; u < r.off+r.slots(); u++ {
			if owner[u] != 0 {
				t.Fatalf("%s: unit %d belongs to pins %d and %d", what, u, owner[u]-1, p)
			}
			owner[u] = int32(p) + 1
		}
	}
}

// sortedPins returns a sorted copy of pins.
func sortedPins(pins []int32) []int32 {
	out := slices.Clone(pins)
	slices.Sort(out)
	return out
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
