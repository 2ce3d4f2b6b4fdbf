// Package core implements INSTA: the ultra-fast, differentiable, statistical
// timing propagation engine of the paper. It is initialized once from a
// reference signoff engine through the circuitops tables (arc delay
// distributions, SP/EP attributes, clock network, exceptions) and then
// performs:
//
//   - a forward pass: level-parallel Top-K statistical arrival propagation
//     with unique startpoints (Algorithms 1 and 2) handling rise/fall,
//     unateness and CPPR;
//   - endpoint slack / WNS / TNS evaluation with per-startpoint required
//     times and timing exceptions;
//   - a backward pass: Log-Sum-Exp-softened gradient backpropagation
//     (Eqs. 4-6) that yields the "timing gradient" of every arc.
//
// The paper's CUDA kernels map here to level-synchronous loops executed by a
// goroutine worker pool over structure-of-arrays CSR data: one "virtual
// thread" per output pin per level. Input pins (single fan-in) take the
// vectorized fast path, as in the paper (§III-D).
package core

import (
	"math"
	"sync"
	"sync/atomic"

	"insta/internal/circuitops"
	"insta/internal/levelize"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/sched"
	"insta/internal/sdc"
)

// Options configures an INSTA engine.
type Options struct {
	// TopK is the number of unique-startpoint arrival distributions kept per
	// pin per transition. 1 disables CPPR resolution (fastest, least
	// accurate); the paper uses 32 for signoff correlation and shows 128.
	TopK int
	// Hold additionally propagates early (minimum) arrivals and enables
	// EvalHoldSlacks — the hold-analysis extension beyond the paper's
	// setup-only scope. Off by default.
	Hold bool
	// Tau is the Log-Sum-Exp temperature of the differentiable backward pass
	// (paper Eq. 4; the sizing experiments use 0.01).
	Tau float64
	// Workers is the participant count of the engine's persistent scheduler
	// pool (the launching goroutine counts as one); 0 means runtime.NumCPU().
	Workers int
	// Grain is the scheduler chunk size in pins/spans; 0 means auto-tuned per
	// launch (sched.New: a size that splits the launch into a few chunks per
	// worker, never below sched.DefaultGrain). A kernel launch of at most one
	// grain runs inline.
	Grain int
	// Tracer, when non-nil, records hierarchical phase/kernel/level spans for
	// every engine pass (see internal/obs). A nil or disabled tracer costs
	// nothing on the hot paths.
	Tracer *obs.Tracer
}

// noSP marks an empty Top-K queue slot.
const noSP = int32(-1)

// Engine is an initialized INSTA session. All heavy state lives in flat
// structure-of-arrays buffers, the CPU analogue of the paper's GPU tensors.
type Engine struct {
	opt     Options
	st      *State // compiled state the engine was built over (ExportState)
	numPins int
	capPins int // tensor row stride in pins: >= numPins; the surplus is
	// headroom so a structural reseed can append pins without relocating
	// the rf=1 tensor blocks (see Reseed)
	qstride int // queue slots per (rf, pin) row: S*K
	// row maps a pin to its tensor row: its position in the level order the
	// engine was built over, so the pins a level launch walks — and most of
	// their parents, one level up — sit in neighbouring memory. A locality
	// hint fixed at build time, read only by base: a structural reseed keeps
	// every pin's row and appends new pins at the tail (Reseed), and a cold or
	// snapshot-booted engine over the edited state is in level order again.
	row    []int32
	period float64
	nSigma float64

	// Scenario axis. The engine times S = len(scns) scenarios in one
	// traversal: every lane sees the nominal arc annotations through its own
	// per-arc-kind scale factors, index [arcKind][lane], resolved inside the
	// inner kernel loops. The paper's single-corner INSTA is S = 1 with unit
	// factors; x*1.0 == x in IEEE arithmetic, so that engine's numbers are
	// exactly those of a kernel without the multiplications.
	scns      []Scenario
	scaleMean [2][]float64
	scaleStd  [2][]float64

	// Fan-in CSR over pins: entries faninStart[p]..faninStart[p+1] index the
	// incoming arcs of pin p (the paper's outPin_parent_start array, Fig. 3).
	faninStart []int32
	faninArc   []int32
	faninFrom  []int32
	faninSense []uint8

	// Arc annotations, indexed by the extraction arc id, per output rf.
	arcMean [2][]float64
	arcStd  [2][]float64
	arcKind []uint8
	arcCell []int32 // owning cell for cell arcs, -1 otherwise
	arcNet  []int32 // net id for net arcs, -1 otherwise
	arcFrom []int32
	arcTo   []int32

	lv *levelize.Result

	// Startpoints / endpoints.
	spPin   []int32
	spNode  []int32
	spMean  []float64
	spStd   []float64
	spOfPin []int32 // per pin: SP index or -1
	epPin   []int32
	epNode  []int32
	epBase  [2][]float64 // base required time per data transition
	epHold  [2][]float64 // hold requirement (+Inf = unchecked)
	epOfPin []int32      // per pin: endpoint index or -1 (overlay read path)

	// Clock network (for CPPR credit).
	clkParent []int32
	clkCumVar []float64
	clkDepth  []int32

	exc *sdc.ExceptionTable

	// Top-K state, flattened with the scenario axis innermost-but-one:
	// index ((rf*capPins)+row[pin])*S*K + s*K + k. One pin's S lane queues
	// are contiguous, so a kernel walks the pin's fan-in once and streams the
	// lanes under it. top is the late view (view.go) with nothing shadowed.
	top view

	grad *gradState // differentiable state (allocated on first Backward)

	// Per-lane endpoint results of the last evaluation, index s*numEPs + i.
	epSlack []float64
	epSP    []int32 // critical startpoint
	epRF    []int8  // critical transition

	hold *holdState // early-arrival state (Options.Hold)

	pinOwner []int32   // lazily built pin→cell mapping (see grads.go)
	arcStage []int32   // lazily built arc→owning stage cell (see grads.go)
	stageAcc []float64 // per-cell accumulation scratch for StageGradients

	// Fan-out CSR (incremental propagation and backward gather): slot i holds
	// destination pin foAdj[i] reached through arc foArc[i]. The backward
	// gather relies on this slot order being fixed for its deterministic
	// float summation.
	foStart, foAdj, foArc []int32

	pool   *sched.Pool // persistent kernel scheduler, created with the engine
	tracer *obs.Tracer // phase/level span recording; nil is a free no-op

	inc  *propScratch // reusable incremental-propagation state (lazily built)
	plan []levelGroup // fused-level launch plan (lazily built; see levelPlan)

	// Merge scratch sets not out with a sweep or wave (borrowScratch).
	scratchMu   sync.Mutex
	scratchFree [][]*mergeScratch

	// What the overlays over this engine keep for their lifetime and hand back
	// when released (overlay.go): shadow row chunks (*queues) and look-up
	// indices (*shadowIndex). sync.Pools, so what no session holds is the
	// collector's to reclaim. overlayRows counts the shadow rows in use.
	chunkPool, indexPool sync.Pool
	overlayRows          atomic.Int64

	// Full-pass kernels, bound once with the engine (bindKernels): a closure
	// literal or method value passed to the pool escapes — the job slot
	// retains it — so building one per launch would cost an allocation per
	// level. The bound kernels read what a launch varies through run.
	kern struct{ level, fused, backward, slack, holdSlack func(id, lo, hi int) }
	run  struct {
		v       *view // view a sweep rebuilds, and its ordering sign
		sign    float64
		scratch []*mergeScratch // the sweep's borrowed merge scratch, by participant
		pins    []int32         // the launched level's pins (level, backward)
		lo, hi  int             // the launched group's levels (fused)
		lane    int             // lane a backward pass differentiates
	}
}

// bindKernels creates the engine's full-pass kernel closures.
func (e *Engine) bindKernels() {
	e.kern.level = func(id, lo, hi int) {
		ms := e.run.scratch[id]
		for _, p := range e.run.pins[lo:hi] {
			e.run.v.recompute(e.run.sign, p, ms)
		}
	}
	// Fused narrow levels: the group's spans fit the pool's serial cutoff, so
	// the launch is one inline chunk on the caller and the level-order walk
	// preserves inter-level dependencies.
	e.kern.fused = func(id, _, _ int) {
		ms := e.run.scratch[id]
		for l := e.run.lo; l < e.run.hi; l++ {
			for _, p := range e.lv.Nodes(l) {
				e.run.v.recompute(e.run.sign, p, ms)
			}
		}
	}
	e.kern.backward = func(_, lo, hi int) {
		for _, p := range e.run.pins[lo:hi] {
			e.backpropPin(p, e.run.lane)
		}
	}
	e.kern.slack = e.slackKernel
	e.kern.holdSlack = e.holdSlackKernel
}

// levelGroup is a run of consecutive timing levels dispatched as one kernel
// launch. Groups wider than one level always fit within the pool's serial
// cutoff, so the fused launch is guaranteed to run inline on the caller in
// level order — inter-level dependencies hold and the result stays
// bit-identical to per-level launches, while deep-but-narrow graph regions
// stop paying a launch (and tracer span) per near-empty level.
type levelGroup struct {
	lo, hi int // levels [lo, hi)
	spans  int // total pins across the group
}

// levelPlan lazily builds the fused-level launch plan.
func (e *Engine) levelPlan() []levelGroup {
	if e.plan != nil {
		return e.plan
	}
	cutoff := e.pool.SerialCutoff()
	plan := make([]levelGroup, 0, e.lv.NumLevels)
	for l := 0; l < e.lv.NumLevels; l++ {
		n := len(e.lv.Nodes(l))
		if len(plan) > 0 {
			g := &plan[len(plan)-1]
			if g.spans+n <= cutoff {
				g.hi, g.spans = l+1, g.spans+n
				continue
			}
		}
		plan = append(plan, levelGroup{lo: l, hi: l + 1, spans: n})
	}
	e.plan = plan
	return plan
}

// propScratch is the reusable state of one cone wave (incremental.go): its
// owner's three hooks, per-level wavefront buckets, the queued-pin set and
// per-bucket change flags, next to the merge scratch set the wave has on loan
// from the engine while it runs. The engine owns one for PropagateIncremental
// — incremental propagation mutates base state, so calls are exclusive — while
// every Overlay owns its own, because many overlays may evaluate concurrently
// over one frozen base.
type propScratch struct {
	// retime is the one thing a wave does to a pin, and what differs between
	// kinds of view: rebuild bucket[i] = p on participant id's scratch and
	// report whether any lane's queues came out different from what the view
	// showed before. It runs inside the level's kernel, concurrently for
	// different i.
	retime func(id, i int, p int32, ms *mergeScratch) bool
	// bind, when set, runs serially on each level's bucket before its kernel:
	// an overlay points the bucket's pins at shadow rows there, because the
	// index must not be written inside the kernel (parents at lower levels are
	// read concurrently through it). settle, when set, is told serially, in
	// bucket order and after the kernel has returned, each retimed pin and
	// whether its queues changed.
	bind   func(bucket []int32)
	settle func(i int, p int32, changed bool)

	buckets [][]int32
	// Queued-pin set as an epoch-stamped slice: queuedAt[p] == stamp means p
	// is in a bucket this call. Reset is O(1) (bump the stamp), membership is
	// one indexed load — a wavefront covering tens of thousands of pins pays
	// no map overhead on its hottest dedupe check.
	queuedAt []uint32
	stamp    uint32
	changed  []bool
	scratch  []*mergeScratch // borrowed by coneWave for its duration, nil outside

	// The level kernel is bound once per scratch and reads the launched
	// bucket through this field — a closure literal per launch would escape
	// into the pool's job slot and cost one allocation per level.
	bucket []int32
	kernFn func(id, lo, hi int)
}

// newPropScratch sizes a wave scratch for e's current graph around its owner's
// hooks.
func (e *Engine) newPropScratch(retime func(id, i int, p int32, ms *mergeScratch) bool, bind func([]int32), settle func(int, int32, bool)) *propScratch {
	s := &propScratch{
		retime: retime, bind: bind, settle: settle,
		buckets:  make([][]int32, e.lv.NumLevels),
		queuedAt: make([]uint32, e.numPins),
		stamp:    1,
	}
	s.kernFn = func(id, lo, hi int) {
		ms := s.scratch[id]
		for i := lo; i < hi; i++ {
			s.changed[i] = s.retime(id, i, s.bucket[i], ms)
		}
	}
	return s
}

// push enqueues pin p into its level bucket once per call.
func (s *propScratch) push(level []int32, p int32) {
	if s.queuedAt[p] != s.stamp {
		s.queuedAt[p] = s.stamp
		s.buckets[level[p]] = append(s.buckets[level[p]], p)
	}
}

// reset empties the wavefront state for reuse, keeping all capacity. The
// queued set clears by bumping the stamp; on the (2^32 calls) wraparound the
// slice is scrubbed so stale stamps can never read as queued.
func (s *propScratch) reset() {
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.stamp++
	if s.stamp == 0 {
		clear(s.queuedAt)
		s.stamp = 1
	}
}

// NewEngine initializes INSTA from extracted circuitops tables — the
// one-time initialization of Fig. 1/Fig. 2. It is exactly Compile (build the
// flat compiled state: CSR topology, level schedule, SP/EP tables, clock
// depths, fan-out CSR) followed by NewEngineFromState (working tensors),
// which is what makes warm-started engines (internal/snap) bit-identical to
// cold-built ones: both run the same second half over the same slabs.
func NewEngine(t *circuitops.Tables, opt Options) (*Engine, error) {
	return NewEngineScenarios(t, unitLane, opt)
}

// NewEngineScenarios is NewEngine for an engine with one lane per scenario:
// Compile followed by NewEngineLanes.
func NewEngineScenarios(t *circuitops.Tables, scns []Scenario, opt Options) (*Engine, error) {
	if err := checkTopK(opt.TopK); err != nil {
		return nil, err
	}
	build := opt.Tracer.StartArg("engine-build", "pins", int64(t.NumPins))
	defer build.End()
	st, err := CompileTraced(t, build)
	if err != nil {
		return nil, err
	}
	return newEngine(st, scns, opt)
}

// Kernel tags for scheduler instrumentation (Engine.KernelStats) and span
// names. One set serves every lane count.
const (
	kForward     = "forward"
	kHold        = "hold"
	kBackward    = "backward"
	kSlack       = "slack"
	kHoldSlack   = "hold-slack"
	kIncremental = "incremental"
	// Overlay session kernels (overlay.go): cone-limited recompute and
	// changed-endpoint slack evaluation over a frozen base engine.
	KernelOverlay      = "overlay"
	KernelOverlaySlack = "overlay-slack"
	// KernelForward is the full forward-propagation tag, exported so serving
	// tests can assert a session evaluation never triggered a full propagate.
	KernelForward = kForward
)

// Pool returns the engine's persistent scheduler pool so applications
// (placement, sizing) can dispatch their own hot loops onto the same workers.
func (e *Engine) Pool() *sched.Pool { return e.pool }

// Close releases the engine's worker pool. Optional: dropping the last
// reference to the engine releases the workers automatically; Close is for
// deterministic shutdown and is idempotent. The engine must not be used
// after Close.
func (e *Engine) Close() { e.pool.Close() }

// EnableKernelStats attaches (and returns) a telemetry collector recording
// every subsequent kernel launch: per-kernel and per-level span counts, chunk
// imbalance and wall time. Idempotent — repeated calls return the same
// collector.
func (e *Engine) EnableKernelStats() *sched.Stats {
	if e.pool.Stats() == nil {
		e.pool.SetStats(sched.NewStats())
	}
	return e.pool.Stats()
}

// SetTracer attaches (or detaches, with nil) a span tracer recording the
// engine's phase and per-level timings. Safe to call between passes; not
// concurrently with one.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// Tracer returns the attached span tracer (nil when none).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// KernelStats snapshots the collected kernel profiles (nil before
// EnableKernelStats).
func (e *Engine) KernelStats() []sched.KernelProfile {
	if s := e.pool.Stats(); s != nil {
		return s.Snapshot()
	}
	return nil
}

// base returns the flat offset of (rf, pin)'s lane-0 Top-K block; lane s
// follows at +s*K and the pin's whole block is qstride = S*K long. It is the
// only place a pin becomes a tensor offset. The row stride is capPins, not
// numPins: an engine may carry tensor headroom beyond its live pins so
// structural reseeds grow in place.
func (e *Engine) base(rf int, pin int32) int {
	return ((rf * e.capPins) + int(e.row[pin])) * e.qstride
}

// Lanes returns S, the number of scenarios the engine propagates together.
func (e *Engine) Lanes() int { return len(e.scns) }

// NumLevels returns the timing level count; INSTA's runtime scales with this
// rather than with pin count (paper §IV-A).
func (e *Engine) NumLevels() int { return e.lv.NumLevels }

// Level returns the timing level of pin p.
func (e *Engine) Level(p int32) int32 { return e.lv.Level[p] }

// MemoryBytes returns the engine's resident state footprint: the Top-K
// tensors and their row map, arc annotations, CSR topology and SP/EP tables —
// the analogue of Table I's GPU memory column. The tensors and endpoint
// results grow with the lane count, the graph does not. Gradient buffers and
// merge scratch sets are counted once allocated.
func (e *Engine) MemoryBytes() int64 {
	b := e.tensorBytes() + e.scratchBytes()
	b += int64(len(e.arcFrom)) * (8*4 + 4*4 + 1) // mean/std both rf + ids + kind
	b += int64(len(e.faninArc)+len(e.faninFrom)) * 4
	b += int64(len(e.faninSense))
	b += int64(len(e.faninStart)+len(e.spOfPin)) * 4
	b += int64(len(e.lv.Order)+len(e.lv.Level)+len(e.lv.LevelStart)) * 4
	b += int64(len(e.spPin)) * (4 + 4 + 8 + 8)
	b += int64(len(e.epPin)) * (4 + 4 + 8 + 8)
	b += int64(len(e.epSlack)) * (8 + 4 + 1)
	if e.hold != nil {
		b += int64(len(e.hold.epSlack)) * 8
	}
	if g := e.grad; g != nil {
		b += int64(len(g.gradArr[0])) * 2 * 4 * 8  // arr/arrStd/seed planes, both rf
		b += int64(len(g.gradMean[0])) * 2 * 4 * 8 // arc grad + flow planes, both rf
	}
	return b
}

// tensorBytes is the allocated size of the Top-K tensors, late and early, and
// of the row map they are indexed through.
func (e *Engine) tensorBytes() int64 {
	b := e.top.q.bytes() + int64(len(e.row))*4
	if e.hold != nil {
		b += e.hold.q.bytes()
	}
	return b
}

// NumPins returns the pin count of the initialized graph.
func (e *Engine) NumPins() int { return e.numPins }

// NumArcs returns the arc count.
func (e *Engine) NumArcs() int { return len(e.arcFrom) }

// TopK returns the configured K.
func (e *Engine) TopK() int { return e.opt.TopK }

// SetArcDelay re-annotates one arc's delay distribution for output
// transition rf, the estimate_eco re-annotation entry point (Fig. 2's
// "update delays" path).
func (e *Engine) SetArcDelay(arc int32, rf int, d num.Dist) {
	e.arcMean[rf][arc] = d.Mean
	e.arcStd[rf][arc] = d.Std
}

// ArcDelay returns the current annotation of arc for transition rf.
func (e *Engine) ArcDelay(arc int32, rf int) num.Dist {
	return num.Dist{Mean: e.arcMean[rf][arc], Std: e.arcStd[rf][arc]}
}

// ArcIsNet reports whether arc is an interconnect arc.
func (e *Engine) ArcIsNet(arc int32) bool { return e.arcKind[arc] == 1 }

// ArcCell returns the owning cell of a cell arc, or -1.
func (e *Engine) ArcCell(arc int32) int32 { return e.arcCell[arc] }

// ArcNet returns the net of a net arc, or -1.
func (e *Engine) ArcNet(arc int32) int32 { return e.arcNet[arc] }

// Endpoints returns the endpoint pin ids in extraction order.
func (e *Engine) Endpoints() []int32 { return e.epPin }

// Startpoints returns the startpoint pin ids in extraction order.
func (e *Engine) Startpoints() []int32 { return e.spPin }

// lca returns the lowest common ancestor of two clock nodes.
func (e *Engine) lca(a, b int32) int32 {
	for e.clkDepth[a] > e.clkDepth[b] {
		a = e.clkParent[a]
	}
	for e.clkDepth[b] > e.clkDepth[a] {
		b = e.clkParent[b]
	}
	for a != b {
		a = e.clkParent[a]
		b = e.clkParent[b]
	}
	return a
}

// credit returns the CPPR common-path credit for launch node l and capture
// node c: 2*nSigma*sqrt(shared variance), identical to the reference model.
func (e *Engine) credit(l, c int32) float64 {
	return 2 * e.nSigma * math.Sqrt(e.clkCumVar[e.lca(l, c)])
}

// excLookup adapts the pin-keyed sdc exception table.
func (e *Engine) excLookup(spPin, epPin int32) sdc.Adjust {
	return e.exc.Lookup(netlist.PinID(spPin), netlist.PinID(epPin))
}
