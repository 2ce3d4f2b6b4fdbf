package core

// Derived pins (derivedPin): a pin whose queues are a shifted copy of its one
// parent's, read by nobody but its one child, owns no tensor slots, and the
// child replays them (view.replay) — to rebuild itself, or in the backward
// pass. The golden digests hold every result to the stored layout's; this
// file holds the rule itself, the replayed rows and the empty layout, cold
// and across the two structural edits the serving layer makes.

import (
	"fmt"
	"runtime/debug"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
)

// derivedRule is the derived-pin rule worked out from st's arc rows alone:
// one fan-in arc, unate; one fan-out arc, into a pin that is not a
// startpoint; the pin itself neither a startpoint nor an endpoint.
func derivedRule(st *State) []bool {
	in, out := make([]int, st.NumPins), make([]int, st.NumPins)
	inArc, child := make([]int32, st.NumPins), make([]int32, st.NumPins)
	for a := range st.ArcFrom {
		in[st.ArcTo[a]]++
		inArc[st.ArcTo[a]] = int32(a)
		out[st.ArcFrom[a]]++
		child[st.ArcFrom[a]] = st.ArcTo[a]
	}
	rule := make([]bool, st.NumPins)
	for p := range rule {
		rule[p] = in[p] == 1 && out[p] == 1 && st.SpOfPin[p] < 0 && st.EpOfPin[p] < 0 &&
			liberty.Unate(st.Arc(inArc[p]).Sense) != liberty.NonUnate && st.SpOfPin[child[p]] < 0
	}
	return rule
}

// assertDerived holds e to the derived layout: the derived set is exactly
// derivedRule's live pins (a dead pin is never derived); every derived pin's
// replayed queues, late and early, are one mergeEmpty hop of its parent's as
// the engine shows them, every lane; and a derived pin owns zero slots — the
// stored pins' rows take every unit the engine has handed out.
func assertDerived(t *testing.T, what string, e *Engine) {
	t.Helper()
	st, S := e.st, len(e.scns)
	rule, live := derivedRule(st), liveRule(st)
	ms := new(mergeScratch)
	n, stored := 0, 0
	for p := int32(0); p < int32(st.NumPins); p++ {
		if want := rule[p] && live[p]; e.rows[p].derived != want {
			t.Fatalf("%s: pin %d derived %v, the rule says %v", what, p, e.rows[p].derived, want)
		}
		if !e.rows[p].derived {
			if e.rows[p].stored() {
				stored += int(e.rows[p].k)
			}
			continue
		}
		if slots := e.rowSlots(p); slots != 0 {
			t.Fatalf("%s: derived pin %d owns %d slots", what, p, slots)
		}
		n++
		pos := st.FaninStart[p]
		arc, parent, kind := st.FaninArc[pos], st.FaninFrom[pos], st.ArcKind[st.FaninArc[pos]]
		flip := 0
		if liberty.Unate(st.FaninSense[pos]) == liberty.NegativeUnate {
			flip = 1
		}
		for _, v := range []struct {
			view *view
			sign float64
		}{{&e.top, 1}, {&e.hold.view, -1}} {
			got, from := v.view.ref(v.sign, p, ms, 1), v.view.ref(v.sign, parent, ms, 2)
			hop := newQueues(got.k)
			for rf := 0; rf < 2; rf++ {
				for s := 0; s < S; s++ {
					am := st.ArcMean[rf][arc] * e.scaleMean[kind][s]
					as := st.ArcStd[rf][arc] * e.scaleStd[kind][s]
					hop.blankTail(0, hop.mergeEmpty(0, got.k, from.q, from.b[rf^flip]+s*from.k, from.k, am, as, v.sign, v.sign*st.NSigma), got.k)
					g := got.b[rf] + s*got.k
					if !sameLive(got.q, g, &hop, 0, got.k, v.sign, v.sign*st.NSigma) {
						t.Fatalf("%s: sign %v rf %d lane %d: derived pin %d is not one hop of its parent %d", what, v.sign, rf, s, p, parent)
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatalf("%s: no pin is derived — the check is vacuous", what)
	}
	if stored != e.rowUnits {
		t.Fatalf("%s: the stored pins' rows take %d units, the engine has handed out %d", what, stored, e.rowUnits)
	}
}

// assertSameLayout holds a reseeded engine to a cold one over the same state:
// the same derived and dead sets and capacities, and the same queues at every
// live pin, late and early.
func assertSameLayout(t *testing.T, what string, got, cold *Engine) {
	t.Helper()
	for p := int32(0); p < int32(cold.st.NumPins); p++ {
		if g, c := got.rows[p], cold.rows[p]; g.derived != c.derived || g.dead != c.dead || g.k != c.k {
			t.Fatalf("%s: pin %d has capacity %d, derived %v, dead %v; a cold engine's %d, %v, %v", what, p, g.k, g.derived, g.dead, c.k, c.derived, c.dead)
		}
		if !sameShown(&got.top, &cold.top, 1, p) || !sameShown(&got.hold.view, &cold.hold.view, -1, p) {
			t.Fatalf("%s: pin %d: queues differ from a cold engine's", what, p)
		}
	}
	assertDerived(t, what, got)
}

// TestDerivedRows runs every block preset at K = 1, 8 and 32 with hold on, at
// S = 1 and over {ss,tt,ff}: the derived layout on the cold engine, then after
// a buffer is inserted on a net arc whose driver is derived and after it is
// bypassed again — which gives the driver a second fan-out and takes the
// buffer output's only one, so both stop being derived — each patched into a
// fork and in place, against a cold engine over the edited state.
func TestDerivedRows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	presets := bench.BlockNames()
	if testing.Short() {
		presets = []string{"block-5"}
	}
	for _, name := range presets {
		spec, err := bench.BlockSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Compile(buildHarness(t, spec).tab)
		if err != nil {
			t.Fatal(err)
		}
		// The middle positive-unate net arc out of a derived driver.
		rule, live := derivedRule(st), liveRule(st)
		var nets []int32
		for a := range st.ArcFrom {
			if st.ArcKind[a] == 1 && rule[st.ArcFrom[a]] && live[st.ArcFrom[a]] && liberty.Unate(st.FaninSense[faninPos(st, int32(a))]) == liberty.PositiveUnate {
				nets = append(nets, int32(a))
			}
		}
		if len(nets) == 0 {
			t.Fatalf("%s: no net arc has a derived driver", name)
		}
		arc := nets[len(nets)/2]
		edits1, newPins, seeds1 := bufferEdits(st, arc)
		st1 := patched(t, st, edits1, newPins, seeds1)
		n := int32(len(st.ArcFrom))
		edits2, seeds2 := bypassEdits(st1, arc, n, n+1)
		st2 := patched(t, st1, edits2, 0, seeds2)
		if rule2 := derivedRule(st2); rule2[st.ArcFrom[arc]] || rule2[st1.ArcTo[n]] {
			t.Fatalf("%s: the bypass left the driver or the buffer output derived — the flip check is vacuous", name)
		}
		for _, k := range []int{1, 8, 32} {
			for _, lanes := range []struct {
				name string
				scns []Scenario
			}{{"S1", unitLane}, {"S3", DefaultScenarios()}} {
				t.Run(fmt.Sprintf("%s/K%d/%s", name, k, lanes.name), func(t *testing.T) {
					opt := Options{TopK: k, Hold: true, Workers: 2}
					cold := func(st *State) *Engine {
						e, err := NewEngineLanes(st, lanes.scns, opt)
						if err != nil {
							t.Fatal(err)
						}
						e.Run()
						e.RefreshHoldSlacks()
						return e
					}
					// Patched in place below, so over slabs of its own: an
					// engine shares those of the state it is built over.
					e := cold(st.fork())
					defer e.Close()
					assertDerived(t, "cold", e)
					if name == "block-1" && k == 32 && lanes.name == "S1" {
						derived := 0
						for _, r := range e.rows {
							if r.derived {
								derived++
							}
						}
						t.Logf("%d of %d pins derived; %d row units (%.1f MB of tensors, late)", derived, st.NumPins, e.rowUnits, float64(2*20*e.rowUnits)/1e6)
					}

					want := cold(st1)
					ne := e.Fork()
					mustPatch(t, ne, edits1, newPins, seeds1)
					assertSameLayout(t, "buffer inserted (fork)", ne, want)
					mustPatch(t, e, edits1, newPins, seeds1)
					assertSameLayout(t, "buffer inserted (in place)", e, want)
					want.Close()

					ne2 := ne.Fork()
					ne.Close()
					defer ne2.Close()
					mustPatch(t, ne2, edits2, 0, seeds2)
					want = cold(st2)
					defer want.Close()
					assertSameLayout(t, "buffer bypassed (fork)", ne2, want)
					mustPatch(t, e, edits2, 0, seeds2)
					assertSameLayout(t, "buffer bypassed (in place)", e, want)
				})
			}
		}
	}
}
