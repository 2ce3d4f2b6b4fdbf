package main

import (
	"fmt"
	"math"
	"time"

	"insta/internal/batch"
	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/refsta"
)

// workload is one set-up program plus its closed-loop op. slice issues the
// workload's fixed unit of work, the same ops every time, back to back (each
// waits for the previous one) and returns the latency of every op that
// completed with the right answer, and how many did not; a failed op has no
// latency.
type workload interface {
	slice(tr *tracer) (lat []time.Duration, failed int)
	close()
}

// kernelSliceOps is a kernel workload's slice: four identical ops, well
// under a second, because the best slice needs that long without
// interference from the host's other guests. On four ops a slice's p50 is
// its third fastest and both its p90 and its p99 are its slowest.
const kernelSliceOps = 4

var (
	fullOpts    = core.Options{TopK: 32, Tau: 0.01, Workers: 1}
	cornersOpts = core.Options{TopK: 8, Workers: 1}
)

// coldSetUps runs the cold pipeline refsta.New → extract → compile → engine →
// first Run() n times on one generated design and returns the quiet set-up
// time with the last pipeline's products. Design generation is input
// generation and stays outside the clock.
func coldSetUps(d design, n int, engine func(*core.State) (run func(), closer func(), err error)) (*built, time.Duration, error) {
	gen, err := bench.Generate(d.spec)
	if err != nil {
		return nil, 0, err
	}
	var (
		b      *built
		closer func()
		times  []time.Duration
	)
	for i := 0; i < n; i++ {
		if closer != nil {
			closer() // only the last engine stays live, so live_heap_mb is one engine's
		}
		t0 := time.Now()
		ref, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
		if err != nil {
			return nil, 0, err
		}
		tab := circuitops.Extract(ref)
		st, err := core.Compile(tab)
		if err != nil {
			return nil, 0, err
		}
		run, cl, err := engine(st)
		if err != nil {
			return nil, 0, err
		}
		run()
		times = append(times, time.Since(t0))
		b, closer = &built{ref: ref, tab: tab, st: st}, cl
	}
	if err := d.verify(measure(b.ref, b.tab, b.st)); err != nil {
		closer()
		return nil, 0, err
	}
	return b, quietDuration(times), nil
}

func mix(h uint64, v float64) uint64 { return (h ^ math.Float64bits(v)) * 1099511628211 }

// pearson correlates the finite pairs of two slack vectors.
func pearson(a, b []float64) float64 {
	var n, sa, sb, saa, sbb, sab float64
	for i := range a {
		if math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
			continue
		}
		n++
		sa, sb = sa+a[i], sb+b[i]
		saa, sbb, sab = saa+a[i]*a[i], sbb+b[i]*b[i], sab+a[i]*b[i]
	}
	return (n*sab - sa*sb) / math.Sqrt((n*saa-sa*sa)*(n*sbb-sb*sb))
}

// fullK32 is the paper's Table I op: full forward propagation, slack
// evaluation and the backward kernel on one core engine at K=32.
type fullK32 struct {
	e        *core.Engine
	sum      uint64 // slack+gradient checksum every op must reproduce bit for bit
	wns, tns float64
	ops      int
}

func newFullK32(cfg *config) (workload, time.Duration, error) {
	w := &fullK32{}
	b, setUp, err := coldSetUps(cfg.full, cfg.colds, func(st *core.State) (func(), func(), error) {
		e, err := core.NewEngineFromState(st, fullOpts)
		if err != nil {
			return nil, nil, err
		}
		w.e = e
		return func() { e.Run() }, e.Close, nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Oracle: the engine must agree with the reference signoff engine it was
	// cloned from before its own answers become the per-op checksum.
	if r := pearson(b.ref.EndpointSlacks(), w.e.Slacks()); !(r >= 0.999) {
		w.close()
		return nil, 0, fmt.Errorf("full_k32: slack correlation with refsta %.6f < 0.999", r)
	}
	if ref := b.ref.WNS(); math.Abs(w.e.WNS()-ref) > 0.01*math.Abs(ref) {
		w.close()
		return nil, 0, fmt.Errorf("full_k32: WNS %v not within 1%% of refsta %v", w.e.WNS(), ref)
	}
	w.e.Backward()
	w.sum, w.wns, w.tns = w.checksum(), w.e.WNS(), w.e.TNS()
	return w, setUp, nil
}

func (w *fullK32) checksum() uint64 {
	h := slackSum(w.e.Slacks())
	for a := int32(0); a < int32(w.e.NumArcs()); a++ {
		h = mix(mix(h, w.e.ArcGradMean(a, 0)), w.e.ArcGradMean(a, 1))
	}
	return h
}

func (w *fullK32) slice(tr *tracer) (lat []time.Duration, failed int) {
	for end := w.ops + kernelSliceOps; w.ops < end; w.ops++ {
		t0 := time.Now()
		op := tr.begin("op", -1, w.ops, 0)
		id := tr.begin("core.forward", op, w.ops, 0)
		w.e.Propagate()
		tr.end(id)
		id = tr.begin("core.slack", op, w.ops, 0)
		w.e.EvalSlacks()
		tr.end(id)
		id = tr.begin("core.backward", op, w.ops, 0)
		w.e.Backward()
		tr.end(id)
		wns, tns := w.e.WNS(), w.e.TNS()
		tr.end(op)
		el := time.Since(t0)
		if wns != w.wns || tns != w.tns || w.checksum() != w.sum {
			failed++
			continue
		}
		lat = append(lat, el)
	}
	return lat, failed
}

func (w *fullK32) close() { w.e.Close() }

// cornersS8 uses the propagation layer the other way: eight scenarios per
// pin through the batched engine at a small K, dispatched over two workers.
type cornersS8 struct {
	be             *batch.Engine
	wns, tns       float64 // merged view
	sum            uint64  // merged slack checksum
	scn            int     // the scenario checked against an independent core engine
	scnWNS, scnTNS float64
	ops            int
}

func newCornersS8(cfg *config) (workload, time.Duration, error) {
	w := &cornersS8{scn: 3}
	b, setUp, err := coldSetUps(cfg.corners, cfg.colds, func(st *core.State) (func(), func(), error) {
		be, err := batch.NewFromState(st, scenarios8, cornersOpts)
		if err != nil {
			return nil, nil, err
		}
		w.be = be
		return be.Run, be.Close, nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Oracle: one scenario must equal a single-corner engine over the
	// derated tables bit for bit.
	e, err := core.NewEngine(batch.ScaleTables(b.tab, scenarios8[w.scn]), cornersOpts)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	e.Run()
	w.scnWNS, w.scnTNS = e.WNS(), e.TNS()
	e.Close()
	if w.be.WNS(w.scn) != w.scnWNS || w.be.TNS(w.scn) != w.scnTNS {
		w.close()
		return nil, 0, fmt.Errorf("corners_s8: scenario %s WNS/TNS %v/%v differs from the derated core engine's %v/%v",
			scenarios8[w.scn].Name, w.be.WNS(w.scn), w.be.TNS(w.scn), w.scnWNS, w.scnTNS)
	}
	v := w.be.Merged()
	w.wns, w.tns, w.sum = v.WNS, v.TNS, slackSum(v.Slacks)
	return w, setUp, nil
}

func slackSum(s []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h = mix(h, v)
	}
	return h
}

func (w *cornersS8) slice(tr *tracer) (lat []time.Duration, failed int) {
	for end := w.ops + kernelSliceOps; w.ops < end; w.ops++ {
		t0 := time.Now()
		op := tr.begin("op", -1, w.ops, 0)
		id := tr.begin("batch.forward", op, w.ops, 0)
		w.be.Propagate()
		tr.end(id)
		id = tr.begin("batch.slack", op, w.ops, 0)
		w.be.EvalSlacks()
		tr.end(id)
		v := w.be.Merged()
		tr.end(op)
		el := time.Since(t0)
		if v.WNS != w.wns || v.TNS != w.tns || slackSum(v.Slacks) != w.sum ||
			w.be.WNS(w.scn) != w.scnWNS || w.be.TNS(w.scn) != w.scnTNS {
			failed++
			continue
		}
		lat = append(lat, el)
	}
	return lat, failed
}

func (w *cornersS8) close() { w.be.Close() }
