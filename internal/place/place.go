// Package place implements the timing-driven analytic global placement
// substrate of the paper's third application (§III-I, Table III, Fig. 9): a
// DREAMPlace-style smooth-wirelength + density optimizer with three timing
// modes — plain (DP), momentum net weighting (DP 4.0), and INSTA-Place's
// arc-gradient objective (Eqs. 7-8) — plus a greedy row legalizer and HPWL
// reporting. The reference engine plays OpenTimer's role as the
// timing-graph refresher every TimerInterval iterations.
package place

import (
	"fmt"
	"math"
	"time"

	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/refsta"
	"insta/internal/sched"
)

// Mode selects the timing strategy.
type Mode int

// Placement modes.
const (
	ModePlain     Mode = iota // wirelength + density only (DREAMPlace)
	ModeNetWeight             // slack-driven momentum net weighting (DREAMPlace 4.0)
	ModeInsta                 // INSTA-Place arc-gradient timing objective
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "DP"
	case ModeNetWeight:
		return "DP4.0-NW"
	default:
		return "INSTA-Place"
	}
}

// Config tunes a placement run.
type Config struct {
	Mode          Mode
	Iterations    int
	TimerInterval int     // timing refresh cadence; the paper uses 15
	LambdaRC      float64 // Eq. 7's RC scaling; the paper uses ~0.001
	Gamma         float64 // weighted-average wirelength smoothing, in sites
	TargetDensity float64
	BinsX, BinsY  int
	LR            float64 // base step size, sites
	Momentum      float64
	NWAlpha       float64 // net-weighting momentum (DP4.0)
	NWBeta        float64 // net-weighting criticality strength
	// TimingWarmup is the fraction of iterations spent on pure
	// wirelength+density before the timing term engages (both timing modes);
	// criticality measured on a still-random placement is noise.
	TimingWarmup float64
	// TimingStrength scales the Eq. 8 balance factor; 1.0 makes the timing
	// gradient norm equal to the default objective's.
	TimingStrength float64
	// Workers sizes the placer's scheduler pool for the wirelength-gradient
	// and position-update kernels; 0 means NumCPU. In INSTA mode the engine's
	// pool is shared instead, so timing and placement kernels reuse the same
	// workers.
	Workers int
}

// DefaultConfig returns settings mirroring the paper's placement setup.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:           mode,
		Iterations:     240,
		TimerInterval:  15,
		LambdaRC:       0.001,
		Gamma:          8,
		TargetDensity:  0.65,
		BinsX:          16,
		BinsY:          16,
		LR:             0.45,
		Momentum:       0.85,
		NWAlpha:        0.75,
		NWBeta:         2.0,
		TimingWarmup:   0.3,
		TimingStrength: 0.05,
	}
}

// Breakdown records the wall-clock split of one timing-refresh iteration
// (the Fig. 9 comparison).
type Breakdown struct {
	Timer    time.Duration // reference-engine timing refresh (OpenTimer role)
	Transfer time.Duration // delay re-annotation into INSTA ("data transfer")
	Weights  time.Duration // gradient/weight computation (backward or NW update)
	Step     time.Duration // one placement gradient step
}

// Total sums the phases.
func (b Breakdown) Total() time.Duration { return b.Timer + b.Transfer + b.Weights + b.Step }

// Result summarizes one placement flow.
type Result struct {
	HPWL          float64 // post-legalization half-perimeter wirelength
	WNS           float64 // post-legalization signoff values (reference engine)
	TNS           float64
	NumViolations int
	Runtime       time.Duration
	LastBreakdown Breakdown // phase split of the final timing-refresh iteration
}

// Placer drives one design through global placement.
type Placer struct {
	d    *netlist.Design
	ref  *refsta.Engine
	eng  *core.Engine // INSTA mode only
	cfg  Config
	W, H float64 // placement region (0,0)-(W,H)

	movable []netlist.CellID
	vx, vy  []float64 // momentum state per movable cell

	netW    []float64         // per-net weight (net-weighting mode)
	arcW    []core.NetArcGrad // raw arc gradients of the last refresh (INSTA mode)
	arcWSm  map[int32]arcPull // momentum-smoothed arc pulls (INSTA mode)
	lambda2 float64           // Eq. 8 balance factor

	// Dense gradient state, indexed by CellID / PinID. The wirelength kernel
	// is two-phase for parallel determinism: nets scatter into the per-pin
	// scratch (each pin belongs to exactly one net), then cells gather their
	// pins' contributions in pin-list order.
	gradX, gradY []float64
	pinGX, pinGY []float64

	pool *sched.Pool // engine's pool in INSTA mode, own pool otherwise
}

// New builds a placer over an initialized reference engine. The region is
// sized from total cell area at the configured target density. In INSTA
// mode, eng must be an INSTA engine initialized from ref's extraction.
func New(ref *refsta.Engine, eng *core.Engine, cfg Config) (*Placer, error) {
	if cfg.Mode == ModeInsta && eng == nil {
		return nil, fmt.Errorf("place: INSTA mode requires a core engine")
	}
	d := ref.D
	var area, maxWidth float64
	var movable []netlist.CellID
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			continue
		}
		movable = append(movable, netlist.CellID(i))
		area += d.Cells[i].Width
		if d.Cells[i].Width > maxWidth {
			maxWidth = d.Cells[i].Width
		}
	}
	side := math.Max(math.Sqrt(area/cfg.TargetDensity), 2*maxWidth)
	p := &Placer{
		d: d, ref: ref, eng: eng, cfg: cfg,
		W: side, H: side,
		movable: movable,
		vx:      make([]float64, len(movable)),
		vy:      make([]float64, len(movable)),
		netW:    make([]float64, len(d.Nets)),
		gradX:   make([]float64, len(d.Cells)),
		gradY:   make([]float64, len(d.Cells)),
		pinGX:   make([]float64, len(d.Pins)),
		pinGY:   make([]float64, len(d.Pins)),
		arcWSm:  make(map[int32]arcPull),
		lambda2: 1,
	}
	if eng != nil {
		p.pool = eng.Pool()
	} else {
		p.pool = sched.New(cfg.Workers, 0)
	}
	for i := range p.netW {
		p.netW[i] = 1
	}
	// Clamp the initial placement into the region.
	for _, c := range movable {
		d.Cells[c].X = num.Clamp(d.Cells[c].X, 0, p.W)
		d.Cells[c].Y = num.Clamp(d.Cells[c].Y, 0, p.H)
	}
	for pi := range d.Pins {
		if d.Pins[pi].Cell == netlist.NoCell {
			d.Pins[pi].X = num.Clamp(d.Pins[pi].X, 0, p.W)
			d.Pins[pi].Y = num.Clamp(d.Pins[pi].Y, 0, p.H)
		}
	}
	return p, nil
}

// Run executes the full flow: global placement iterations with periodic
// timing refresh, then legalization and a final signoff evaluation.
func (p *Placer) Run() Result {
	start := time.Now()
	var last Breakdown
	warmup := int(p.cfg.TimingWarmup * float64(p.cfg.Iterations))
	for it := 0; it < p.cfg.Iterations; it++ {
		var bd Breakdown
		if p.cfg.Mode != ModePlain && it >= warmup && (it-warmup)%p.cfg.TimerInterval == 0 {
			bd = p.RefreshTiming()
		}
		t0 := time.Now()
		p.Step(it)
		bd.Step = time.Since(t0)
		if bd.Timer > 0 {
			last = bd
		}
	}
	p.Legalize()
	p.refreshReference()
	return Result{
		HPWL:          p.HPWL(),
		WNS:           p.ref.WNS(),
		TNS:           p.ref.TNS(),
		NumViolations: p.ref.NumViolations(),
		Runtime:       time.Since(start),
		LastBreakdown: last,
	}
}

// refreshReference rebuilds parasitics from current positions and re-runs
// the reference engine (the OpenTimer refresh of §III-I).
func (p *Placer) refreshReference() {
	ids := make([]netlist.NetID, len(p.d.Nets))
	for i := range ids {
		ids[i] = netlist.NetID(i)
	}
	p.ref.RefreshNetParasitics(ids)
	p.ref.UpdateTimingFull()
}

// RefreshTiming refreshes the reference timing view and recomputes the
// mode's timing weights, returning the phase breakdown (Fig. 9). Run calls
// this on the TimerInterval cadence; it is exported for benchmarks and
// custom placement drivers.
func (p *Placer) RefreshTiming() Breakdown {
	var bd Breakdown
	t0 := time.Now()
	p.refreshReference()
	bd.Timer = time.Since(t0)

	switch p.cfg.Mode {
	case ModeNetWeight:
		t0 = time.Now()
		pinSlacks := p.ref.PinSlacks()
		netSlack := refsta.NetSlack(p.ref, pinSlacks)
		wns := p.ref.WNS()
		if wns >= 0 {
			wns = -1
		}
		for i, s := range netSlack {
			crit := 0.0
			if !math.IsInf(s, 0) && s < 0 {
				crit = s / wns // in (0, 1]
			}
			target := 1 + p.cfg.NWBeta*crit
			p.netW[i] = num.Clamp(p.cfg.NWAlpha*p.netW[i]+(1-p.cfg.NWAlpha)*target, 1, 8)
		}
		bd.Weights = time.Since(t0)
	case ModeInsta:
		// "Data transfer": clone refreshed arc delays into INSTA. Arcs are
		// disjoint, so the transfer runs on the shared scheduler pool.
		t0 = time.Now()
		p.pool.RunTagged("place-xfer", -1, len(p.ref.Arcs), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a := &p.ref.Arcs[i]
				p.eng.SetArcDelay(int32(i), liberty.Rise, a.Delay[liberty.Rise])
				p.eng.SetArcDelay(int32(i), liberty.Fall, a.Delay[liberty.Fall])
			}
		})
		bd.Transfer = time.Since(t0)
		// Gradient computation: forward + backward kernels, then the same
		// momentum smoothing the net-weighting baseline enjoys, so pressure
		// persists on recently-critical arcs (the paper reuses the
		// last-computed gradients between refreshes for the same reason).
		t0 = time.Now()
		p.eng.Run()
		p.eng.Backward()
		p.arcW = p.eng.NetArcGradients()
		p.updateLambda2()
		p.smoothArcWeights()
		bd.Weights = time.Since(t0)
	}
	return bd
}

// updateLambda2 implements Eq. 8: balance the timing gradient norm against
// the default objective's gradient norm.
func (p *Placer) updateLambda2() {
	p.clearGrads()
	p.addWirelengthGrad(nil)
	p.addDensityGrad()
	base := p.gradNorm()
	p.clearGrads()
	p.addArcTimingGradRaw()
	tg := p.gradNorm()
	if tg > 0 {
		p.lambda2 = p.cfg.TimingStrength * base / tg
	}
	p.clearGrads()
}

func (p *Placer) clearGrads() {
	clear(p.gradX)
	clear(p.gradY)
}

func (p *Placer) gradNorm() float64 {
	var s float64
	for _, g := range p.gradX {
		s += g * g
	}
	for _, g := range p.gradY {
		s += g * g
	}
	return math.Sqrt(s)
}

// Step performs one momentum gradient-descent update of the global
// placement (exported so examples and diagnostics can drive the loop
// manually; Run composes Step with timing refreshes and legalization).
func (p *Placer) Step(it int) {
	p.clearGrads()
	switch p.cfg.Mode {
	case ModeNetWeight:
		p.addWirelengthGrad(p.netW)
	default:
		p.addWirelengthGrad(nil)
	}
	p.addDensityGrad()
	if p.cfg.Mode == ModeInsta && p.arcW != nil {
		p.addArcTimingGrad()
	}

	lr := p.cfg.LR * (1 - 0.5*float64(it)/float64(p.cfg.Iterations))
	p.pool.RunTagged("place-step", -1, len(p.movable), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := p.movable[i]
			gx, gy := p.gradX[c], p.gradY[c]
			p.vx[i] = p.cfg.Momentum*p.vx[i] - lr*gx
			p.vy[i] = p.cfg.Momentum*p.vy[i] - lr*gy
			cell := &p.d.Cells[c]
			cell.X = num.Clamp(cell.X+p.vx[i], 0, p.W)
			cell.Y = num.Clamp(cell.Y+p.vy[i], 0, p.H)
		}
	})
}

// arcPull is one momentum-smoothed arc weight with its pin pair.
type arcPull struct {
	From, To int32
	W        float64
}

// smoothArcWeights folds the latest normalized arc weights into the
// momentum-smoothed pull set and decays stale entries.
func (p *Placer) smoothArcWeights() {
	var gmax float64
	for _, aw := range p.arcW {
		if -aw.Grad > gmax {
			gmax = -aw.Grad
		}
	}
	fresh := make(map[int32]arcPull, len(p.arcW))
	if gmax > 0 {
		scale := p.lambda2 * p.cfg.LambdaRC * gmax
		peak := num.Clamp(scale, 2, p.cfg.NWBeta*4)
		for _, aw := range p.arcW {
			g := -aw.Grad
			if g == 0 {
				continue
			}
			// Compressed dynamic range: hub arcs funnel hundreds of
			// endpoints while a worst-slack path may funnel one.
			fresh[aw.Arc] = arcPull{From: aw.From, To: aw.To, W: peak * math.Pow(g/gmax, 0.05)}
		}
	}
	alpha := p.cfg.NWAlpha
	for arc, old := range p.arcWSm {
		f, ok := fresh[arc]
		if !ok {
			w := alpha * old.W
			if w < 0.05 {
				delete(p.arcWSm, arc)
				continue
			}
			old.W = w
			p.arcWSm[arc] = old
			continue
		}
		f.W = alpha*old.W + (1-alpha)*f.W
		if f.W < fresh[arc].W {
			f.W = fresh[arc].W
		}
		p.arcWSm[arc] = f
		delete(fresh, arc)
	}
	for arc, f := range fresh {
		p.arcWSm[arc] = f
	}
}
