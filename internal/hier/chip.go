// Chip build harness: resolve a bench.ChipSpec into compiled block states,
// extract (or cache-load) one model per unique block, and assemble the Chip
// for composition — the shared front half of cmd/insta-hier, the correlate
// report, and the benchmark suites.
package hier

import (
	"fmt"
	"math"
	"sort"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/snap"
)

// ChipRun is a resolved chip: per-instance compiled states and models plus
// the extraction/caching cost of getting there.
type ChipRun struct {
	Spec   bench.ChipSpec
	States []*core.State // per instance; repeated blocks share pointers
	Models []*BlockModel // per instance; repeated blocks share pointers
	Chip   *Chip

	CacheHits, CacheMisses int   // cache traffic (zero when no cache is given)
	Extracted              int   // unique models extracted this run
	ExtractNs              int64 // model extraction (cache misses only)
}

// BuildChip resolves spec: boot compiles each unique block preset once (boot
// is the caller's name→compiled-state path — cold generate or warm
// snapshot), and each unique state is extracted once, through cache when one
// is given: a model whose source-state content hash is already stored loads
// instead of re-extracting, and any block edit flips its hash so exactly
// that model misses.
func BuildChip(spec bench.ChipSpec, boot func(name string) (*core.State, error),
	scns []core.Scenario, opt core.Options, cache *snap.Cache) (*ChipRun, error) {

	r := &ChipRun{
		Spec:   spec,
		States: make([]*core.State, len(spec.Blocks)),
		Models: make([]*BlockModel, len(spec.Blocks)),
	}
	states := make(map[string]*core.State)
	models := make(map[string]*BlockModel)
	for i, name := range spec.Blocks {
		st, ok := states[name]
		if !ok {
			var err error
			if st, err = boot(name); err != nil {
				return nil, fmt.Errorf("hier: boot %s: %w", name, err)
			}
			states[name] = st
		}
		r.States[i] = st
		m, ok := models[name]
		if !ok {
			var err error
			if m, err = obtainModel(st, scns, opt, cache, r); err != nil {
				return nil, fmt.Errorf("hier: extract %s: %w", name, err)
			}
			models[name] = m
		}
		r.Models[i] = m
	}
	r.Chip = &Chip{Name: spec.Name, Models: r.Models, Wires: spec.Wires}
	return r, nil
}

// obtainModel loads the state's model from cache or extracts (and stores) it.
func obtainModel(st *core.State, scns []core.Scenario, opt core.Options,
	cache *snap.Cache, r *ChipRun) (*BlockModel, error) {

	topK := opt.TopK
	if topK < 1 {
		topK = 16
	}
	if cache != nil {
		hash := StateHash(st, scns, topK)
		if m, err := LoadModel(cache, hash); err == nil && m != nil {
			r.CacheHits++
			return m, nil
		}
		r.CacheMisses++
	}
	t0 := time.Now()
	m, err := Extract(st, scns, opt)
	if err != nil {
		return nil, err
	}
	r.Extracted++
	r.ExtractNs += time.Since(t0).Nanoseconds()
	if cache != nil {
		if _, err := SaveModel(cache, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RecoveredSlacks runs per-block recovery for scenario si of a finished
// analysis and concatenates the kept endpoints in fm's flat order, yielding
// a slack vector directly comparable to the flattened chip's EvalSlacks.
func (r *ChipRun) RecoveredSlacks(a *Analysis, si int, fm *FlatMap, opt core.Options) ([]float64, error) {
	var out []float64
	for inst := range r.States {
		sl, err := a.RecoverBlock(si, inst, r.States[inst], opt)
		if err != nil {
			return nil, err
		}
		for _, ei := range fm.EpKeep[inst] {
			out = append(out, sl[ei])
		}
	}
	return out, nil
}

// Deltas summarizes per-endpoint slack differences between two analyses of
// the same endpoints (typically flat vs hierarchical-recovered).
type Deltas struct {
	N        int     // finite pairs compared
	Max      float64 // max |delta|
	Mean     float64 // mean |delta|
	Q50      float64
	Q95      float64
	Q99      float64
	Disagree int // endpoints where only one side is violating
}

// DeltaStats compares two equally-ordered slack vectors, skipping endpoints
// unconstrained on both sides (+Inf slack).
func DeltaStats(a, b []float64) Deltas {
	var d Deltas
	var abs []float64
	for i := range a {
		if i >= len(b) {
			break
		}
		if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
			continue
		}
		v := math.Abs(a[i] - b[i])
		abs = append(abs, v)
		d.Mean += v
		if v > d.Max {
			d.Max = v
		}
		if (a[i] < 0) != (b[i] < 0) {
			d.Disagree++
		}
	}
	d.N = len(abs)
	if d.N == 0 {
		return d
	}
	d.Mean /= float64(d.N)
	sort.Float64s(abs)
	q := func(p float64) float64 {
		k := int(p * float64(d.N-1))
		return abs[k]
	}
	d.Q50, d.Q95, d.Q99 = q(0.50), q(0.95), q(0.99)
	return d
}

// ScenarioBound evaluates the documented error bound for one composed
// scenario from observed data: NSigma times the worst boundary arrival sigma
// at any wired input of the top graph, once per instance (presets wire
// feed-forward, so a path crosses at most len(instances)-1 boundaries; the
// extra term covers the launch-selection step at the origin block).
func ScenarioBound(sr *ScenarioResult) float64 {
	x := sr.Index
	maxStd := 0.0
	for inst := range x.WiredIn {
		for j, wired := range x.WiredIn[inst] {
			if !wired {
				continue
			}
			for rf := 0; rf < 2; rf++ {
				_, std, sps := sr.Engine.TopEntries(rf, x.InPin(inst, j))
				for k := range sps {
					if sps[k] < 0 {
						break
					}
					if std[k] > maxStd {
						maxStd = std[k]
					}
				}
			}
		}
	}
	return ErrorBound(sr.Tab.NSigma, maxStd, len(x.Base))
}

// CompareScenario is one scenario's flat-vs-hierarchical comparison.
type CompareScenario struct {
	Name             string
	FlatWNS, FlatTNS float64 // flattened-chip ground truth
	HierWNS, HierTNS float64 // composed fast summary
	RecWNS, RecTNS   float64 // per-block recovery (flat semantics)
	Bound            float64 // model-error bound evaluated on this scenario
	Deltas           Deltas  // per-endpoint |flat - recovered|
}

// Compare is a full flat-vs-hierarchical differential over a chip run.
type Compare struct {
	Scen              []CompareScenario
	FlatPins, TopPins int
	FlatNs            int64 // flat path: compile + one lane-per-scenario propagate
	AnalyzeNs         int64 // hier path: compose + compile + propagate, all scenarios
	RecoverNs         int64 // per-block recovery, all scenarios
}

// CompareFlat flattens the chip, runs both analysis paths over every
// scenario, and reports WNS/TNS deltas, per-endpoint recovery accuracy, and
// wall time for each side.
func (r *ChipRun) CompareFlat(opt core.Options) (*Compare, error) {
	flatTab, fm, err := ComposeFlat(r.Spec.Name, r.States, r.Spec.Wires)
	if err != nil {
		return nil, err
	}
	opt.Hold = false
	t0 := time.Now()
	a, err := Analyze(r.Chip, opt)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	c := &Compare{
		FlatPins:  flatTab.NumPins,
		AnalyzeNs: time.Since(t0).Nanoseconds(),
	}

	// The flat side: one compile and one engine with a lane per scenario.
	t0 = time.Now()
	scns := make([]core.Scenario, len(a.Scen))
	for si, sr := range a.Scen {
		scns[si] = sr.Scenario
	}
	fst, err := core.Compile(flatTab)
	if err != nil {
		return nil, err
	}
	fe, err := core.NewEngineLanes(fst, scns, opt)
	if err != nil {
		return nil, err
	}
	defer fe.Close()
	fe.Propagate()
	fe.RefreshSlacks()
	c.FlatNs = time.Since(t0).Nanoseconds()

	for si, sr := range a.Scen {
		c.TopPins = sr.Tab.NumPins
		flatSl := fe.LaneSlacks(si)
		flatWNS, flatTNS := core.WNS(flatSl), core.TNS(flatSl)

		t0 = time.Now()
		rec, err := r.RecoveredSlacks(a, si, fm, opt)
		if err != nil {
			return nil, err
		}
		c.RecoverNs += time.Since(t0).Nanoseconds()
		cs := CompareScenario{
			Name:    sr.Scenario.Name,
			FlatWNS: flatWNS, FlatTNS: flatTNS,
			HierWNS: sr.WNS, HierTNS: sr.TNS,
			Bound:  ScenarioBound(sr),
			Deltas: DeltaStats(flatSl, rec),
		}
		for _, s := range rec {
			if s < cs.RecWNS {
				cs.RecWNS = s
			}
			if s < 0 {
				cs.RecTNS += s
			}
		}
		c.Scen = append(c.Scen, cs)
	}
	return c, nil
}

// ErrorBound is the documented model-error bound on any composed-path slack:
// nsigma times the worst boundary arrival sigma, once per block crossing
// (DESIGN.md §16). crossings is the longest chain of blocks a path can
// traverse; maxBoundaryStd the largest arrival sigma at any wired boundary
// input.
func ErrorBound(nsigma, maxBoundaryStd float64, crossings int) float64 {
	return nsigma * maxBoundaryStd * float64(crossings)
}
