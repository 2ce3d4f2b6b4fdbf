// Block timing-model extraction: reduce a compiled core.State to the
// boundary-to-boundary arcs, internal constraint summaries, and launch
// distributions of a BlockModel, per scenario.
//
// Two machines produce the numbers:
//
//   - A full engine run over the (scenario-scaled) block supplies the launch
//     arcs (worst internally-launched Top-K entry at each output) and the
//     internal-only endpoint slacks (the engine's slack evaluation replayed
//     with boundary startpoints filtered out).
//
//   - A per-input cone propagation supplies the thru and cons arcs: from
//     each boundary input, seeded at one transition with a zero arrival, the
//     worst RSS-composed path distribution to every reachable pin is pushed
//     level-by-level through the fan-in CSR using exactly the engine's
//     arithmetic (same unateness expansion, same keep-max rule with
//     keep-existing ties). Because the flat engine retains at most one entry
//     per unique startpoint, a Top-1 cone from a single source reproduces
//     the entry the flat engine would carry for that startpoint bit for bit
//     (modulo Top-K eviction, which only ever drops paths from the flat
//     side).
package hier

import (
	"fmt"
	"math"
	"sort"

	"insta/internal/batch"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/sdc"
)

// Extract reduces a compiled block to its interface timing model for the
// given scenario block (nil = nominal). opt supplies the engine
// configuration used for the launch/internal-slack extraction (TopK,
// Workers); hold analysis is block-internal and not part of the model.
func Extract(st *core.State, scns []batch.Scenario, opt core.Options) (*BlockModel, error) {
	scns = NormScenarios(scns)
	ins, outs := Boundary(st)
	if len(ins) == 0 && len(outs) == 0 {
		return nil, fmt.Errorf("hier: %s has no boundary pins", st.Design)
	}
	if opt.TopK < 1 {
		opt.TopK = 16
	}
	opt.Hold = false

	m := &BlockModel{
		Design:     st.Design,
		Hash:       StateHash(st, scns, opt.TopK),
		Period:     st.Period,
		NSigma:     st.NSigma,
		TopK:       opt.TopK,
		SourcePins: st.NumPins,
		SourceArcs: len(st.ArcFrom),
		Ins:        ins,
		Outs:       outs,
		EpPin:      append([]int32(nil), st.EpPin...),
	}

	// Boundary startpoint set (by SP index) for the internal/external split.
	boundarySP := make([]bool, len(st.SpPin))
	for i := range st.SpPin {
		boundarySP[i] = st.SpNode[i] == 0
	}
	exc, err := st.CompileExceptions()
	if err != nil {
		return nil, err
	}

	// Port endpoint requirements and boundary-pair exceptions
	// (scenario-independent: derates scale arcs, never required times).
	m.OutReq = make([]float64, len(outs)*2)
	for o, p := range outs {
		ei := st.EpOfPin[p]
		m.OutReq[o*2+0] = st.EpBase[0][ei]
		m.OutReq[o*2+1] = st.EpBase[1][ei]
	}
	for i, in := range ins {
		for o, p := range outs {
			adj := exc.Lookup(netlist.PinID(in.Pin), netlist.PinID(p))
			if adj.False || adj.Cycles > 0 {
				m.PortExc = append(m.PortExc, PortExc{
					In: int32(i), Out: int32(o),
					False: adj.False, Cycles: int32(adj.Cycles),
				})
			}
		}
	}

	sc := newConeScratch(st.NumPins)
	for _, scn := range scns {
		sst := scaleState(st, scn)
		sm, err := extractScenario(sst, scn, m, boundarySP, exc, sc, opt)
		if err != nil {
			return nil, err
		}
		m.Scen = append(m.Scen, *sm)
	}
	return m, nil
}

// extractScenario produces one scenario's model slabs from the scaled state.
func extractScenario(st *core.State, scn batch.Scenario, m *BlockModel,
	boundarySP []bool, exc *sdc.ExceptionTable, sc *coneScratch, opt core.Options) (*ScenarioModel, error) {

	nI, nO, nEP := len(m.Ins), len(m.Outs), len(st.EpPin)
	sm := &ScenarioModel{
		Scenario:    scn,
		ThruMean:    fill(nI*nO*4, math.Inf(-1)),
		ThruStd:     make([]float64, nI*nO*4),
		ConsMean:    fill(nI*2, math.Inf(-1)),
		ConsStd:     make([]float64, nI*2),
		ConsReq:     fill(nI*2, math.Inf(1)),
		ConsRawMean: fill(nI*2, math.Inf(-1)),
		ConsRawStd:  make([]float64, nI*2),
		ConsRawReq:  fill(nI*2, math.Inf(1)),
		LaunchMean:  fill(nO*2, math.Inf(-1)),
		LaunchStd:   make([]float64, nO*2),
		IntSlack:    make([]float64, nEP),
	}
	// Port endpoints are excluded from cons aggregation: their checks are
	// composed from thru arcs + OutReq/PortExc, so a wired output's phantom
	// check can be dropped exactly like flat drops its EP row.
	isPortEp := make(map[int32]bool, nO)
	for _, p := range m.Outs {
		isPortEp[p] = true
	}

	// Engine pass: launch arcs and internal-only slacks.
	e, err := core.NewEngineFromState(st, opt)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	e.Run()

	outIdx := make(map[int32]int, nO)
	for o, p := range m.Outs {
		outIdx[p] = o
		for rf := 0; rf < 2; rf++ {
			mean, std, sps := e.TopEntries(rf, p)
			for kk, sp := range sps {
				if sp < 0 {
					break // queues are packed: empties trail
				}
				if boundarySP[sp] {
					continue
				}
				sm.LaunchMean[o*2+rf] = mean[kk]
				sm.LaunchStd[o*2+rf] = std[kk]
				break // entries are descending: first internal is worst
			}
		}
	}

	// Internal-only slack evaluation: the engine's slack loop with boundary
	// startpoints filtered out. These slacks never depend on boundary
	// arrivals, so they transfer into any composition unchanged.
	sm.WNSInt, sm.TNSInt = 0, 0
	for i := range st.EpPin {
		p := st.EpPin[i]
		best := math.Inf(1)
		for rf := 0; rf < 2; rf++ {
			mean, std, sps := e.TopEntries(rf, p)
			for kk, sp := range sps {
				if sp < 0 {
					break
				}
				if boundarySP[sp] {
					continue
				}
				adj := exc.Lookup(netlist.PinID(st.SpPin[sp]), netlist.PinID(p))
				if adj.False {
					continue
				}
				req := st.EpBase[rf][i] +
					float64(adj.CycleCount()-1)*st.Period +
					stCredit(st, st.SpNode[sp], st.EpNode[i])
				if s := req - (mean[kk] + st.NSigma*std[kk]); s < best {
					best = s
				}
			}
		}
		sm.IntSlack[i] = best
		if best < sm.WNSInt {
			sm.WNSInt = best
		}
		if best < 0 {
			sm.TNSInt += best
		}
	}

	// Cone passes: thru and cons arcs. Boundary-launched constraints fold
	// the CPPR credit of a root-launched path (lca(root, ·) is always the
	// root), which is constant per block.
	credit0 := 2 * st.NSigma * math.Sqrt(st.ClkCumVar[0])
	for i, in := range m.Ins {
		for r0 := 0; r0 < 2; r0++ {
			sc.run(st, in.Pin, r0)
			// Thru: the cone seeded at transition r0 yields the r0 slot of
			// every positive-unate arc and the (1-r0) slot of every
			// negative-unate arc.
			for o, p := range m.Outs {
				if mval, sval, ok := sc.at(r0, p); ok {
					k := thruIdx(nO, i, o, 0, r0)
					sm.ThruMean[k], sm.ThruStd[k] = mval, sval
				}
				if mval, sval, ok := sc.at(1-r0, p); ok {
					k := thruIdx(nO, i, o, 1, 1-r0)
					sm.ThruMean[k], sm.ThruStd[k] = mval, sval
				}
			}
			// Cons: worst boundary-launched constraint across every reached
			// internal (cell) endpoint, selected at a zero-variance boundary
			// input — the one compression step that can reorder paths
			// (DESIGN.md §16). The exception-aware variant mirrors a flat
			// check launched at this input; the raw variant mirrors a
			// cross-block check (no matching exceptions, zero shared clock).
			bestExc, bestRaw := math.Inf(1), math.Inf(1)
			for _, p := range sc.eps {
				if isPortEp[p] {
					continue
				}
				ei := st.EpOfPin[p]
				for er := 0; er < 2; er++ {
					mval, sval, ok := sc.at(er, p)
					if !ok {
						continue
					}
					worst := mval + st.NSigma*sval
					if qr := st.EpBase[er][ei]; qr-worst < bestRaw {
						bestRaw = qr - worst
						sm.ConsRawMean[i*2+r0] = mval
						sm.ConsRawStd[i*2+r0] = sval
						sm.ConsRawReq[i*2+r0] = qr
					}
					adj := exc.Lookup(netlist.PinID(in.Pin), netlist.PinID(p))
					if adj.False {
						continue
					}
					q := st.EpBase[er][ei] +
						float64(adj.CycleCount()-1)*st.Period +
						credit0
					if q-worst < bestExc {
						bestExc = q - worst
						sm.ConsMean[i*2+r0] = mval
						sm.ConsStd[i*2+r0] = sval
						sm.ConsReq[i*2+r0] = q
					}
				}
			}
		}
	}
	return sm, nil
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// coneScratch holds the epoch-stamped per-pin scratch of the cone
// propagation, reused across every (input, transition, scenario) run.
type coneScratch struct {
	mean, std [2][]float64
	stamp     []int32 // pin reached in epoch
	epoch     int32
	reach     []int32 // reached pins of the current run, level-sorted
	eps       []int32 // reached endpoint pins of the current run
	queue     []int32
}

func newConeScratch(n int) *coneScratch {
	sc := &coneScratch{stamp: make([]int32, n)}
	for rf := 0; rf < 2; rf++ {
		sc.mean[rf] = make([]float64, n)
		sc.std[rf] = make([]float64, n)
	}
	for i := range sc.stamp {
		sc.stamp[i] = -1
	}
	return sc
}

// at reads the cone arrival at pin p for transition rf; ok is false when no
// path from the source reaches (p, rf).
func (sc *coneScratch) at(rf int, p int32) (mean, std float64, ok bool) {
	if sc.stamp[p] != sc.epoch || math.IsInf(sc.mean[rf][p], -1) {
		return 0, 0, false
	}
	return sc.mean[rf][p], sc.std[rf][p], true
}

// run propagates the worst path distribution from source (seeded with a
// zero arrival at transition r0 only) through its fan-out cone, in level
// order, with the engine's exact per-contribution arithmetic.
func (sc *coneScratch) run(st *core.State, source int32, r0 int) {
	sc.epoch++
	sc.reach = sc.reach[:0]
	sc.eps = sc.eps[:0]
	sc.queue = sc.queue[:0]

	mark := func(p int32) {
		if sc.stamp[p] == sc.epoch {
			return
		}
		sc.stamp[p] = sc.epoch
		sc.mean[0][p], sc.mean[1][p] = math.Inf(-1), math.Inf(-1)
		sc.std[0][p], sc.std[1][p] = 0, 0
		sc.queue = append(sc.queue, p)
		if p != source {
			sc.reach = append(sc.reach, p)
			if st.EpOfPin[p] >= 0 {
				sc.eps = append(sc.eps, p)
			}
		}
	}
	mark(source)
	sc.mean[r0][source] = 0

	// Reachability sweep over the fan-out CSR. Startpoint pins freeze their
	// seeds in the engine (recompute reseeds them and returns), so the cone
	// never expands into one.
	for qi := 0; qi < len(sc.queue); qi++ {
		p := sc.queue[qi]
		for pos := st.FoStart[p]; pos < st.FoStart[p+1]; pos++ {
			t := st.FoAdj[pos]
			if st.SpOfPin[t] >= 0 {
				continue
			}
			mark(t)
		}
	}

	// Level-order relaxation: arcs only cross to strictly higher levels, so
	// sorting reached pins by level (intra-level order is immaterial) gives
	// a valid schedule without touching unreached pins.
	sort.Slice(sc.reach, func(a, b int) bool {
		pa, pb := sc.reach[a], sc.reach[b]
		if st.LvLevel[pa] != st.LvLevel[pb] {
			return st.LvLevel[pa] < st.LvLevel[pb]
		}
		return pa < pb
	})
	for _, p := range sc.reach {
		for rf := 0; rf < 2; rf++ {
			bestA := math.Inf(-1)
			bestM, bestS := math.Inf(-1), 0.0
			for pos := st.FaninStart[p]; pos < st.FaninStart[p+1]; pos++ {
				arc := st.FaninArc[pos]
				parent := st.FaninFrom[pos]
				if sc.stamp[parent] != sc.epoch {
					continue
				}
				am := st.ArcMean[rf][arc]
				as := st.ArcStd[rf][arc]
				inRFs, n := liberty.Unate(st.FaninSense[pos]).InRFs(rf)
				for ri := 0; ri < n; ri++ {
					pm := sc.mean[inRFs[ri]][parent]
					if math.IsInf(pm, -1) {
						continue
					}
					ps := sc.std[inRFs[ri]][parent]
					mv := pm + am
					sv := math.Sqrt(ps*ps + as*as)
					// Keep-max with keep-existing ties: the update rule of the
					// engine's Top-K insert (core's Algorithm 2, Step 1) for
					// an already-queued startpoint.
					if a := mv + st.NSigma*sv; a > bestA {
						bestA, bestM, bestS = a, mv, sv
					}
				}
			}
			sc.mean[rf][p], sc.std[rf][p] = bestM, bestS
		}
	}
}
