package core

import (
	"math"

	"insta/internal/liberty"
)

// Backward runs the gradient backpropagation kernel (paper §III-F/G). It
// computes the "timing gradient" of every arc — ∂TNS/∂(arc delay mean) and
// ∂TNS/∂(arc delay sigma) — by walking the level schedule in reverse from
// the endpoints.
//
// The forward max-merge is non-differentiable, so merge points distribute
// gradient over their fan-in contributions with the Log-Sum-Exp softmax
// weights of Eq. 6 at temperature tau (the engine option). The contribution
// corners are recomputed from the most-critical (k=0) statistical state of
// the last Propagate, so Backward must follow a forward evaluation.
//
// Because arrivals are distributions, two gradient planes propagate in
// lockstep: ∂Loss/∂(pin arrival mean) and ∂Loss/∂(pin arrival sigma). Means
// compose additively (chain factor 1) while sigmas compose by RSS (chain
// factor s_parent/s_child < 1), which is why a single-plane corner gradient
// would overestimate sigma sensitivities downstream.
//
// Parallel determinism: where a GPU backward kernel would atomicAdd into
// shared parent-pin slots (making the float accumulation order depend on the
// scheduler), this pass is two-phase per level. Each pin first *gathers* its
// own gradient — its endpoint seed plus the flow slots of its fan-out arcs,
// summed in fan-out CSR order — then *scatters* softmax-weighted shares into
// the flow slots of its fan-in arcs, which it exclusively owns (each arc has
// exactly one `to` pin). The reverse level sweep guarantees every child has
// scattered before any parent gathers, so both phases fuse into one kernel
// per level with no atomics and a bit-identical result for any worker count.
//
// TNS here is Σ_ep min(0, slack_ep) with slack taken from the k=0 entry per
// transition; each violating endpoint seeds ∂/∂mean = -1 and ∂/∂sigma =
// -nSigma into its critical transition. Mean gradients are therefore ≤ 0:
// making an arc faster raises TNS toward 0 in proportion to |gradient|.
//
// Backward differentiates lane 0 — the whole engine at S = 1.
func (e *Engine) Backward() { e.BackwardLane(0, nil) }

// BackwardWeighted runs the backward kernel with explicit per-endpoint loss
// gradients: endpoint i's critical transition is seeded with -w[i] on the
// mean plane (and -nSigma*w[i] on the sigma plane). A nil w reproduces the
// TNS subgradient (weight 1 on violating endpoints). Combined with
// WNSWeights this yields ∂(soft-WNS)/∂(arc delay) — the paper's "gradients
// of WNS and TNS with respect to leaf variables".
func (e *Engine) BackwardWeighted(w []float64) { e.BackwardLane(0, w) }

// gradState is the differentiable state, allocated on first Backward and
// overwritten by each. The slabs are per pin, endpoint or arc, not per lane:
// a backward pass differentiates one lane. The pass is two-phase per level so
// that accumulation order is fixed by the CSR layout, never by goroutine
// scheduling: each pin *scatters* weighted gradient into per-arc flow slots
// it exclusively owns (it is every fan-in arc's unique `to` pin), and
// *gathers* its own gradient from its fan-out arcs' slots in CSR order.
// Results are bit-identical for any Workers.
type gradState struct {
	gradArr  [2][]float64 // dLoss/d(arrival mean at pin), gathered
	seedMean [2][]float64 // per-endpoint loss seeds (EpOfPin), injected at the endpoint pin
	seedStd  [2][]float64
	flowMean [2][]float64 // per-arc gradient flow, indexed [parent rf][arc]
	flowStd  [2][]float64
	gradMean [2][]float64 // dLoss/d(arc delay mean) — the paper's timing gradient
	gradStd  [2][]float64 // dLoss/d(arc delay sigma)
}

// BackwardLane is BackwardWeighted over lane s's propagated state: the
// gradients it leaves behind are those of lane s's TNS (or weighted loss)
// with respect to lane s's *derated* arc delays — exactly what Backward on a
// single-lane engine over tables scaled by that lane's factors computes, bit
// for bit. Multiply by the lane's factor for the arc's kind for sensitivities
// to the nominal annotation. The pass holds one set of the engine's merge
// scratch, where derived parents are replayed (backpropPin).
func (e *Engine) BackwardLane(s int, w []float64) {
	st := e.st
	sp := e.opt.Tracer.StartArg(kBackward, "levels", int64(st.NumLevels))
	defer sp.End()
	nArcs := len(st.ArcFrom)
	if e.grad == nil {
		e.grad = new(gradState)
		for rf := 0; rf < 2; rf++ {
			e.grad.gradArr[rf] = make([]float64, st.NumPins)
			e.grad.seedMean[rf] = make([]float64, len(st.EpPin))
			e.grad.seedStd[rf] = make([]float64, len(st.EpPin))
			e.grad.flowMean[rf] = make([]float64, nArcs)
			e.grad.flowStd[rf] = make([]float64, nArcs)
			e.grad.gradMean[rf] = make([]float64, nArcs)
			e.grad.gradStd[rf] = make([]float64, nArcs)
		}
	}
	g := e.grad
	for rf := 0; rf < 2; rf++ {
		clear(g.seedMean[rf])
		clear(g.seedStd[rf])
		clear(g.flowMean[rf])
		clear(g.flowStd[rf])
		clear(g.gradMean[rf])
		clear(g.gradStd[rf])
	}

	e.seedEndpointGradients(s, w)

	// Reverse level sweep: each pin gathers its gradient from its fan-out
	// arcs' flow slots, then distributes it to its fan-in arcs and parents.
	e.run.lane, e.run.scratch = s, e.borrowScratch()
	for l := st.NumLevels - 1; l >= 0; l-- {
		e.run.pins = st.levelPins(l)
		lsp := sp.ChildArg("level", "level", int64(l))
		e.pool.RunIndexed(kBackward, l, len(e.run.pins), e.kern.backward)
		lsp.End()
	}
	e.returnScratch(e.run.scratch)
	e.run.scratch = nil
}

// seedEndpointGradients injects the TNS subgradient at each violating
// endpoint's critical transition, evaluated on the k=0 (most critical)
// entries — the K=1 view the differentiable mode operates on. The endpoint
// corner is mean + nSigma*sigma, so the sigma plane is seeded with
// -nSigma per unit of slack.
func (e *Engine) seedEndpointGradients(s int, w []float64) {
	for i, p := range e.st.EpPin {
		ep := e.st.EpOfPin[p]
		best, sp, bestRF := e.top.setupSlack(s, int32(i), 1)
		if sp == noSP {
			continue
		}
		weight := 0.0
		switch {
		case w != nil:
			weight = w[i]
		case best < 0:
			weight = 1
		}
		if weight != 0 {
			e.grad.seedMean[bestRF][ep] += -weight
			e.grad.seedStd[bestRF][ep] += -e.st.NSigma * weight
		}
	}
}

// WNSWeights returns soft-min weights over the current lane-0 endpoint slacks
// at temperature tau: passing them to BackwardWeighted backpropagates the
// smooth worst-negative-slack objective
// WNS_soft = -tau*log Σ exp(-slack_i/tau), whose gradient concentrates on
// the worst endpoints as tau → 0. Requires a prior Propagate.
func (e *Engine) WNSWeights(tau float64) []float64 {
	if tau <= 0 {
		tau = 1
	}
	n := len(e.st.EpPin)
	slacks := make([]float64, n)
	minSlack := math.Inf(1)
	for i := range e.st.EpPin {
		s, _, _ := e.top.setupSlack(0, int32(i), 1)
		slacks[i] = s // +Inf when untimed
		if s < minSlack {
			minSlack = s
		}
	}
	w := make([]float64, n)
	if math.IsInf(minSlack, 1) || minSlack >= 0 {
		return w // nothing violating: zero gradient
	}
	var sum float64
	for i, s := range slacks {
		if math.IsInf(s, 1) {
			continue
		}
		v := math.Exp((minSlack - s) / tau)
		w[i] = v
		sum += v
	}
	inv := 1 / sum
	for i := range w {
		w[i] *= inv
	}
	return w
}

// backpropPin gathers pin p's gradient from its fan-out flow slots (plus its
// endpoint seed) in fan-out CSR order, then distributes it across its fan-in
// contributions using the Eq. 6 softmax over lane's contribution corner
// values, each recomputed from its parent's k = 0 entry. The parents' rows are
// resolved once, and only when a gradient reaches p: a derived parent is
// replayed into ms (view.parents). A derived pin has one reader, so it is
// replayed at most once per pass. The distribution writes only flow slots of
// arcs ending at p, so pins within a level never touch shared state.
func (e *Engine) backpropPin(p int32, lane int, ms *mergeScratch) {
	g, st := e.grad, e.st
	folo, fohi := st.FoStart[p], st.FoStart[p+1]
	lo, hi := st.FaninStart[p], st.FaninStart[p+1]
	ep := st.EpOfPin[p]
	var gms, gss [2]float64
	for rf := 0; rf < 2; rf++ {
		// Gather: fixed CSR order makes the float sum order deterministic.
		var gm, gs float64
		if ep >= 0 {
			gm, gs = g.seedMean[rf][ep], g.seedStd[rf][ep]
		}
		for pos := folo; pos < fohi; pos++ {
			a := st.FoArc[pos]
			gm += g.flowMean[rf][a]
			gs += g.flowStd[rf][a]
		}
		g.gradArr[rf][p] = gm
		gms[rf], gss[rf] = gm, gs
	}
	if lo == hi || gms == [2]float64{} && gss == [2]float64{} {
		return
	}
	par := e.top.parents(1, p, ms)
	tau := e.opt.Tau
	var contribs [16]contrib
	for rf := 0; rf < 2; rf++ {
		gm, gs := gms[rf], gss[rf]
		if gm == 0 && gs == 0 {
			continue
		}
		cs := contribs[:0]
		maxCorner := math.Inf(-1)
		for pos := lo; pos < hi; pos++ {
			arc := st.FaninArc[pos]
			kind := st.ArcKind[arc]
			am, as := e.top.arcDelay(rf, arc)
			am *= e.scaleMean[kind][lane]
			as *= e.scaleStd[kind][lane]
			pr := &par[pos-lo]
			inRFs, nrf := liberty.Unate(st.FaninSense[pos]).InRFs(rf)
			for ri := 0; ri < nrf; ri++ {
				prf := inRFs[ri]
				pq, pb := pr.q, pr.b[prf]+lane*pr.k
				if pq.sp[pb] == noSP {
					continue
				}
				pstd := pq.std[pb]
				rss := math.Sqrt(pstd*pstd + as*as)
				corner := pq.mean[pb] + am + st.NSigma*rss
				// Chain factors through s_child = RSS(s_parent, arc sigma).
				dsParent, dsArc := 1.0, 0.0
				if rss > 0 {
					dsParent = pstd / rss
					dsArc = as / rss
				}
				cs = append(cs, contrib{
					arc: arc, prf: int8(prf),
					corner: corner, dsParent: dsParent, dsArc: dsArc,
				})
				if corner > maxCorner {
					maxCorner = corner
				}
			}
		}
		if len(cs) == 0 {
			continue
		}
		// Softmax weights, Eq. 6.
		var sum float64
		for i := range cs {
			w := math.Exp((cs[i].corner - maxCorner) / tau)
			cs[i].w = w
			sum += w
		}
		inv := 1 / sum
		for i := range cs {
			c := &cs[i]
			w := c.w * inv
			g.gradMean[rf][c.arc] += w * gm
			g.gradStd[rf][c.arc] += w * gs * c.dsArc
			// Scatter: flow slots of fan-in arcs are owned by p. A non-unate
			// arc can route both of p's transitions onto the same (prf, arc)
			// slot, hence += rather than assignment.
			g.flowMean[int(c.prf)][c.arc] += w * gm
			g.flowStd[int(c.prf)][c.arc] += w * gs * c.dsParent
		}
	}
}

type contrib struct {
	arc      int32
	prf      int8
	corner   float64
	dsParent float64
	dsArc    float64
	w        float64
}

// ArcGradMean returns ∂TNS/∂(mean delay of arc) for output transition rf
// from the last Backward call.
func (e *Engine) ArcGradMean(arc int32, rf int) float64 { return e.grad.gradMean[rf][arc] }

// ArcGradStd returns ∂TNS/∂(sigma of arc) for output transition rf.
func (e *Engine) ArcGradStd(arc int32, rf int) float64 { return e.grad.gradStd[rf][arc] }

// TimingGradient returns the arc's combined timing gradient
// ∂TNS/∂(mean delay), summed over both output transitions. It is ≤ 0; its
// magnitude ranks the arc's leverage on TNS (paper §III-G).
func (e *Engine) TimingGradient(arc int32) float64 {
	return e.grad.gradMean[0][arc] + e.grad.gradMean[1][arc]
}

// ArrivalGradient returns ∂TNS/∂(arrival mean at pin) for transition rf.
func (e *Engine) ArrivalGradient(rf int, pin int32) float64 { return e.grad.gradArr[rf][pin] }
