package core

// Dead pins (livePin): a pin from which no endpoint can be reached owns no
// tensor slots, and no pass or wave rebuilds it; LaneTopEntries rebuilds its
// queues when asked (Engine.revive). The golden digests hold every result to
// the layout that stored them; this file holds the liveness rule, the empty
// rows, Reseed's liveness wave in both directions and the rebuilt reads.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/liberty"
)

// liveRule is liveness worked out from st's arc rows alone: a reverse
// breadth-first search from the endpoints over fan-in arcs.
func liveRule(st *State) []bool {
	fanin := make([][]int32, st.NumPins)
	for a := range st.ArcFrom {
		fanin[st.ArcTo[a]] = append(fanin[st.ArcTo[a]], st.ArcFrom[a])
	}
	live := make([]bool, st.NumPins)
	queue := slices.Clone(st.EpPin)
	for _, p := range queue {
		live[p] = true
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, from := range fanin[p] {
			if !live[from] {
				live[from] = true
				queue = append(queue, from)
			}
		}
	}
	return live
}

// TestDeadPins: on every block preset at K = 1, 8 and 32, over one lane and
// over {ss,tt,ff}, the dead set is exactly the pins liveRule finds no way to
// an endpoint from, a dead pin owns no slots, and the rows handed out are
// exactly the stored pins' capacities. Layouts after structural edits are
// held to a cold engine's in TestDerivedRows and TestSessionKeepsDerivedLayout.
func TestDeadPins(t *testing.T) {
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
		live := liveRule(st)
		for _, k := range []int{1, 8, 32} {
			for _, lanes := range []struct {
				name string
				scns []Scenario
			}{{"S1", unitLane}, {"S3", DefaultScenarios()}} {
				t.Run(fmt.Sprintf("%s/K%d/%s", name, k, lanes.name), func(t *testing.T) {
					e, err := NewEngineLanes(st, lanes.scns, Options{TopK: k, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					dead, stored, units := 0, 0, 0
					for p, r := range e.rows {
						if r.dead == live[p] {
							t.Fatalf("pin %d dead %v, but an endpoint is reachable from it: %v", p, r.dead, live[p])
						}
						if r.dead {
							dead++
							if n := e.rowSlots(int32(p)); n != 0 {
								t.Fatalf("dead pin %d owns %d slots", p, n)
							}
						}
						if r.stored() {
							stored++
							units += int(r.k)
						}
					}
					if dead == 0 {
						t.Fatal("no pin is dead — the check is vacuous")
					}
					if units != e.rowUnits {
						t.Fatalf("stored pins' capacities sum to %d units, the engine handed out %d", units, e.rowUnits)
					}
					if lanes.name == "S1" {
						t.Logf("%d pins: %d dead, %d stored, %d row units", st.NumPins, dead, stored, units)
					}
				})
			}
		}
	}
}

// withSinkEndpoints returns tab with an endpoint row added on every pin that
// drives nothing and is not a startpoint or an endpoint already, so that an
// endpoint is reachable from every pin but a startpoint that drives nothing.
// Endpoints take no part in a pin's queues, so every pin's are unchanged.
func withSinkEndpoints(tab *circuitops.Tables) *circuitops.Tables {
	out := make([]bool, tab.NumPins)
	for _, a := range tab.Arcs {
		out[a.From] = true
	}
	for _, sp := range tab.SPs {
		out[sp.Pin] = true
	}
	for _, ep := range tab.EPs {
		out[ep.Pin] = true
	}
	t := *tab
	t.EPs = slices.Clone(tab.EPs)
	for p, drives := range out {
		if !drives {
			ep := tab.EPs[0]
			ep.Pin = int32(p)
			t.EPs = append(t.EPs, ep)
		}
	}
	return &t
}

// TestDeadPinReads: LaneTopEntries at a dead pin rebuilds what a pass would
// have left there. A second engine over the same tables with an endpoint on
// every sink has no dead pin but an unreached startpoint, and both must agree
// bit for bit at every pin, lane and transition.
func TestDeadPinReads(t *testing.T) {
	for _, name := range []string{"block-2", "block-5"} {
		spec, err := bench.BlockSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		tab := buildHarness(t, spec).tab
		for _, k := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/K%d", name, k), func(t *testing.T) {
				opt := Options{TopK: k, Workers: 2}
				e, err := NewEngineScenarios(tab, DefaultScenarios(), opt)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				e.Run()
				all, err := NewEngineScenarios(withSinkEndpoints(tab), DefaultScenarios(), opt)
				if err != nil {
					t.Fatal(err)
				}
				defer all.Close()
				all.Run()
				dead := 0
				for p := int32(0); p < int32(e.NumPins()); p++ {
					if all.rows[p].dead && e.st.SpOfPin[p] < 0 {
						t.Fatalf("pin %d is dead under an endpoint on every sink", p)
					}
					if e.rows[p].dead {
						dead++
					}
					for rf := 0; rf < 2; rf++ {
						for s := 0; s < e.Lanes(); s++ {
							gm, gs, gsp := e.LaneTopEntries(rf, p, s)
							wm, ws, wsp := all.LaneTopEntries(rf, p, s)
							if !slices.Equal(gsp, wsp) {
								t.Fatalf("pin %d rf %d lane %d: startpoints %v, a live engine's %v", p, rf, s, gsp, wsp)
							}
							for i, sp := range gsp {
								if sp != noSP && (gm[i] != wm[i] || gs[i] != ws[i]) {
									t.Fatalf("pin %d rf %d lane %d slot %d: (%v, %v), a live engine's (%v, %v)", p, rf, s, i, gm[i], gs[i], wm[i], ws[i])
								}
							}
						}
					}
				}
				if dead == 0 {
					t.Fatal("no pin is dead — the check is vacuous")
				}
			})
		}
	}
}

// TestReseedRevivesDeadPin: startpoint B reaches d directly and through c,
// neither of which reaches an endpoint, so all three are dead. An edit wires
// d into x, on A's path to the endpoint, and names x to the reseed: the
// liveness wave climbs from x to d, c and B, which come alive — B and d
// stored, each in a fresh row that joins the seeds, c derived — and x then
// holds B's arrival as a cold engine does.
func TestReseedRevivesDeadPin(t *testing.T) {
	const a, b, c, d, x, ep = 0, 1, 2, 3, 4, 5
	arc := func(from, to int32, mean float64) circuitops.ArcRow {
		return circuitops.ArcRow{From: from, To: to, Kind: 0, Sense: uint8(liberty.PositiveUnate), Cell: -1, Net: -1,
			MeanRise: mean, StdRise: 0.5, MeanFall: mean + 1, StdFall: 0.5}
	}
	tab := &circuitops.Tables{
		Design: "revive", NumPins: 6, Period: 200, NSigma: 3,
		ClockNodes: []circuitops.ClockNodeRow{{Parent: -1}},
		SPs:        []circuitops.SPRow{{Pin: a, Mean: 10, Std: 1}, {Pin: b, Mean: 20, Std: 1}},
		EPs:        []circuitops.EPRow{{Pin: ep, BaseReqRise: 150, BaseReqFall: 150, HoldReqRise: math.Inf(1), HoldReqFall: math.Inf(1)}},
		Arcs:       []circuitops.ArcRow{arc(a, x, 5), arc(x, ep, 5), arc(b, c, 30), arc(c, d, 30), arc(b, d, 55)},
	}
	wired := *tab
	wired.Arcs = append(slices.Clone(tab.Arcs), arc(d, x, 5))
	st, err := Compile(&wired)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct{ hold, fork bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		opt := Options{TopK: 2, Hold: mode.hold, Workers: 1}
		e, err := NewEngine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run()
		for _, p := range []int32{b, c, d} {
			if !e.rows[p].dead {
				t.Fatalf("before the edit pin %d is live", p)
			}
		}
		cold, err := NewEngineFromState(st, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		cold.Run()
		if _, _, sps := cold.TopEntries(0, x); !slices.Contains(sps, b) {
			t.Fatalf("x holds startpoints %v, not B — the check is vacuous", sps)
		}
		ne := reseedOnto(e, st, []int32{x}, mode.fork)
		defer ne.Close()
		for p := int32(0); p < int32(st.NumPins); p++ {
			if ne.rows[p].dead || ne.rows[p].k != cold.rows[p].k {
				t.Fatalf("%+v: pin %d dead %v, capacity %d; a cold engine's live, %d", mode, p, ne.rows[p].dead, ne.rows[p].k, cold.rows[p].k)
			}
			if !sameShown(&ne.top, &cold.top, 1, p) || mode.hold && !sameShown(&ne.hold.view, &cold.hold.view, -1, p) {
				t.Fatalf("%+v: pin %d: reseeded queues differ from a cold engine's", mode, p)
			}
		}
		sameSlacks(t, fmt.Sprintf("%+v", mode), engineSlacks(ne), engineSlacks(cold))
	}
}

// TestDeadPinsGatherNoGradient: backpropPin needs no dead-pin case because a
// dead pin gathers exactly zero — no endpoint seed, and every child is dead
// and scattered nothing — and returns before it resolves a parent. So after
// a backward pass every dead pin's arrival gradient and every fan-in arc's
// timing gradient are zero, while a live pin's are not all zero.
func TestDeadPinsGatherNoGradient(t *testing.T) {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(buildHarness(t, spec).tab, Options{TopK: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	e.Backward()
	st, live := e.st, 0.0
	for p := int32(0); p < int32(st.NumPins); p++ {
		for rf := 0; rf < 2; rf++ {
			if !e.rows[p].dead {
				live += math.Abs(e.ArrivalGradient(rf, p))
				continue
			}
			if g := e.ArrivalGradient(rf, p); g != 0 {
				t.Fatalf("dead pin %d gathered gradient %v (rf %d)", p, g, rf)
			}
			for _, a := range st.FaninArc[st.FaninStart[p]:st.FaninStart[p+1]] {
				if e.ArcGradMean(a, rf) != 0 || e.ArcGradStd(a, rf) != 0 {
					t.Fatalf("arc %d into dead pin %d has gradient (%v, %v)", a, p, e.ArcGradMean(a, rf), e.ArcGradStd(a, rf))
				}
			}
		}
	}
	if live == 0 {
		t.Fatal("no live pin has a gradient — the check is vacuous")
	}
}
