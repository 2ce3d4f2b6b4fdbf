package place

import (
	"math"

	"insta/internal/netlist"
)

// addWirelengthGrad accumulates the gradient of the weighted-average (WA)
// smooth wirelength over all nets into gradX/gradY. weights scales each
// net's contribution (nil means uniform), which is how DP4.0-style net
// weighting enters the objective.
//
// The kernel is two-phase over the scheduler pool, each phase racing on
// nothing and summing in a fixed order: nets scatter per-pin gradients into
// pinGX/pinGY (a pin belongs to exactly one net, so writes are disjoint),
// then movable cells gather their pins' contributions in pin-list order. The
// result is bit-identical for any worker count.
func (p *Placer) addWirelengthGrad(weights []float64) {
	gamma := p.cfg.Gamma
	clear(p.pinGX)
	clear(p.pinGY)
	p.pool.RunTagged("place-wl", -1, len(p.d.Nets), func(lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			net := &p.d.Nets[ni]
			if len(net.Sinks) == 0 {
				continue
			}
			w := 1.0
			if weights != nil {
				w = weights[ni]
			}
			p.waNetGrad(net, w, gamma, true)
			p.waNetGrad(net, w, gamma, false)
		}
	})
	p.pool.RunTagged("place-wl", -1, len(p.movable), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := p.movable[i]
			var gx, gy float64
			for _, pin := range p.d.Cells[c].Pins {
				gx += p.pinGX[pin]
				gy += p.pinGY[pin]
			}
			p.gradX[c] += gx
			p.gradY[c] += gy
		}
	})
}

// waNetGrad computes the WA wirelength gradient of one net along one axis.
// WA(net) = (Σ x e^{x/γ})/(Σ e^{x/γ}) - (Σ x e^{-x/γ})/(Σ e^{-x/γ});
// its gradient w.r.t. each pin is computed with max-shifted exponentials for
// stability, and scattered into the per-pin scratch (the gather phase folds
// it onto movable cells; ports and fixed cells never gather).
func (p *Placer) waNetGrad(net *netlist.Net, w, gamma float64, xAxis bool) {
	pins := p.netPins(net)
	n := len(pins)
	if n < 2 {
		return
	}
	coord := func(pin netlist.PinID) float64 {
		x, y := p.d.PinPos(pin)
		if xAxis {
			return x
		}
		return y
	}
	maxC, minC := math.Inf(-1), math.Inf(1)
	for _, pin := range pins {
		c := coord(pin)
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	var sPlus, sxPlus, sMinus, sxMinus float64
	ePlus := make([]float64, n)
	eMinus := make([]float64, n)
	for i, pin := range pins {
		c := coord(pin)
		ep := math.Exp((c - maxC) / gamma)
		em := math.Exp((minC - c) / gamma)
		ePlus[i], eMinus[i] = ep, em
		sPlus += ep
		sxPlus += c * ep
		sMinus += em
		sxMinus += c * em
	}
	for i, pin := range pins {
		c := coord(pin)
		// d WA⁺ / dx_i and d WA⁻ / dx_i.
		dPlus := ePlus[i] * (1 + (c-sxPlus/sPlus)/gamma) / sPlus
		dMinus := eMinus[i] * (1 - (c-sxMinus/sMinus)/gamma) / sMinus
		g := w * (dPlus - dMinus)
		if xAxis {
			p.pinGX[pin] += g
		} else {
			p.pinGY[pin] += g
		}
	}
}

// netPins lists a net's driver and sink pins.
func (p *Placer) netPins(net *netlist.Net) []netlist.PinID {
	out := make([]netlist.PinID, 0, 1+len(net.Sinks))
	out = append(out, net.Driver)
	out = append(out, net.Sinks...)
	return out
}

// addDensityGrad accumulates a bin-overflow spreading force: cells deposit
// their area bilinearly into a BinsX×BinsY grid; bins above the target
// density push their cells toward less-filled neighbours along the density
// gradient. This is a lightweight stand-in for ePlace's electrostatic
// system — adequate because all three compared flows share it (the Table III
// contrast isolates the timing term).
func (p *Placer) addDensityGrad() {
	nx, ny := p.cfg.BinsX, p.cfg.BinsY
	bw := p.W / float64(nx)
	bh := p.H / float64(ny)
	binArea := bw * bh
	density := make([]float64, nx*ny)
	for _, c := range p.movable {
		cell := &p.d.Cells[c]
		bx := int(cell.X / bw)
		by := int(cell.Y / bh)
		if bx >= nx {
			bx = nx - 1
		}
		if by >= ny {
			by = ny - 1
		}
		density[by*nx+bx] += cell.Width / binArea
	}
	overflow := func(bx, by int) float64 {
		if bx < 0 || bx >= nx || by < 0 || by >= ny {
			return math.Inf(1) // walls repel
		}
		ov := density[by*nx+bx] - p.cfg.TargetDensity
		if ov < 0 {
			return 0
		}
		return ov
	}
	const k = 18.0 // density force scale relative to wirelength gradient (~1)
	for _, c := range p.movable {
		cell := &p.d.Cells[c]
		bx := int(cell.X / bw)
		by := int(cell.Y / bh)
		if bx >= nx {
			bx = nx - 1
		}
		if by >= ny {
			by = ny - 1
		}
		here := overflow(bx, by)
		if here == 0 {
			continue
		}
		// Finite-difference density gradient; move downhill.
		gx := diffFinite(overflow(bx+1, by), overflow(bx-1, by), here)
		gy := diffFinite(overflow(bx, by+1), overflow(bx, by-1), here)
		p.gradX[c] += k * here * gx
		p.gradY[c] += k * here * gy
	}
}

// diffFinite returns the central-difference slope, treating walls (+Inf) as
// strongly repulsive.
func diffFinite(plus, minus, here float64) float64 {
	if math.IsInf(plus, 1) && math.IsInf(minus, 1) {
		return 0
	}
	if math.IsInf(plus, 1) {
		return here - minus + 1
	}
	if math.IsInf(minus, 1) {
		return -(here - plus + 1)
	}
	return (plus - minus) / 2
}

// addArcTimingGrad accumulates INSTA-Place's Eq. 7 objective as arc-level
// weighted pulls: each critical arc (f_k, t_k) contributes the gradient of a
// weighted two-pin Manhattan span, with its weight proportional to the arc's
// normalized timing gradient. Force magnitudes therefore stay on the same
// scale as the wirelength gradient (like the net-weighting baseline), while
// the *targeting* is per-arc — exactly the contrast of the paper's Fig. 5:
// only timing-critical sinks get pulled, and each in proportion to its own
// leverage on TNS. The overall level is set by the Eq. 8 balance factor
// clamped to the net-weighting regime so neither flow enjoys a raw-force
// advantage.
func (p *Placer) addArcTimingGrad() {
	for _, ap := range p.arcWSm {
		p.pullArc(ap.From, ap.To, ap.W)
	}
}

// addArcTimingGradRaw accumulates the un-normalized Eq. 7 gradient
// (λ_RC·g_k pulls) used only to measure the timing gradient norm for the
// Eq. 8 balance factor.
func (p *Placer) addArcTimingGradRaw() {
	for _, aw := range p.arcW {
		if g := -aw.Grad; g != 0 {
			p.pullArc(aw.From, aw.To, p.cfg.LambdaRC*g)
		}
	}
}

// pullArc adds the gradient of arc (from, to)'s weight-w smooth Manhattan
// span to its two cells: a tanh pull that saturates at the wirelength
// smoothing scale, so close pairs stop oscillating. Fixed cells and ports
// take none.
func (p *Placer) pullArc(fromPin, toPin int32, w float64) {
	from, to := netlist.PinID(fromPin), netlist.PinID(toPin)
	fc := p.d.Pins[from].Cell
	tc := p.d.Pins[to].Cell
	fx, fy := p.d.PinPos(from)
	tx, ty := p.d.PinPos(to)
	sx := math.Tanh((fx - tx) / p.cfg.Gamma)
	sy := math.Tanh((fy - ty) / p.cfg.Gamma)
	if fc != netlist.NoCell && !p.d.Cells[fc].Fixed {
		p.gradX[fc] += w * sx
		p.gradY[fc] += w * sy
	}
	if tc != netlist.NoCell && !p.d.Cells[tc].Fixed {
		p.gradX[tc] -= w * sx
		p.gradY[tc] -= w * sy
	}
}
