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
	"sync"
	"sync/atomic"
	"unsafe"

	"insta/internal/circuitops"
	"insta/internal/liberty"
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
	opt Options
	// st is the compiled design the engine propagates over, and the one copy
	// of it the engine reads: topology, level schedule, SP/EP tables, clock
	// network and the current arc annotations, which SetArcDelay writes. It is
	// the engine's own shallow copy of the state it was built over, annotation
	// slabs cloned (newEngine), or the patched state a structural edit adopted
	// (Patch).
	// Kernels load it once per call (st := e.st) and index its slabs.
	st *State
	// rows maps a pin to its tensor row (rowSpan): where it starts, its
	// capacity and whether the pin is derived or dead, which own no slots. Rows are
	// laid out in the level order the engine was built over, so the pins a
	// level launch walks — and most of their parents, one level up — sit in
	// neighbouring memory; a structural reseed keeps every row that still
	// fits and gives the others fresh rows at the tail (reseed), and a cold
	// or snapshot-booted engine over the edited state is in level order
	// again.
	rows []rowSpan
	// Row units handed out, and allocated, per rf block; a unit is S slots
	// (one per lane). capUnits >= rowUnits: the surplus is headroom so a
	// structural reseed can add rows without relocating the rf=1 block.
	rowUnits, capUnits int
	qstride            int // S*K: the slots per rf of the widest row, an overlay's shadow row and a wave's snapshot

	// Scenario axis. The engine times S = len(scns) scenarios in one
	// traversal: every lane sees the nominal arc annotations through its own
	// per-arc-kind scale factors, index [arcKind][lane], resolved inside the
	// inner kernel loops. The paper's single-corner INSTA is S = 1 with unit
	// factors; x*1.0 == x in IEEE arithmetic, so that engine's numbers are
	// exactly those of a kernel without the multiplications.
	scns      []Scenario
	scaleMean [2][]float64
	scaleStd  [2][]float64

	exc *sdc.ExceptionTable

	// Top-K state, flattened with the scenario axis innermost-but-one: with
	// (off, k) = rows[pin], slot kk of lane s is at
	// (rf*capUnits + off)*S + s*k + kk. One pin's S lane queues are
	// contiguous, so a kernel walks the pin's fan-in once and streams the
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

	pool *sched.Pool // persistent kernel scheduler, created with the engine

	inc  *propScratch // the in-place cone wave's reusable state (lazily built)
	plan []levelGroup // fused-level launch plan (lazily built; see levelPlan)

	// Merge scratch sets not out with a sweep or wave (borrowScratch).
	scratchMu   sync.Mutex
	scratchFree [][]*mergeScratch

	// Released overlays over this engine, reset, each with all the storage it
	// grew — row chunks, look-up index, wave scratch, bookkeeping slices — for
	// the next NewOverlay (overlay.go). A sync.Pool, so what no session holds
	// is the collector's to reclaim. overlayRows counts the shadow rows in use.
	overlays    sync.Pool
	overlayRows atomic.Int64

	// Full-pass kernels, bound once with the engine (bindKernels): a closure
	// literal or method value passed to the pool escapes — the job slot
	// retains it — so building one per launch would cost an allocation per
	// level. The bound kernels read what a launch varies through run.
	kern struct{ level, fused, backward, slack, holdSlack func(id, lo, hi int) }
	run  struct {
		v       *view // view a sweep rebuilds, and its ordering sign
		sign    float64
		scratch []*mergeScratch // the pass's borrowed merge scratch, by participant
		pins    []int32         // the launched level's pins (level, backward)
		lo, hi  int             // the launched group's levels (fused)
		lane    int             // lane a backward pass differentiates
		eps     []int32         // endpoints a slack pass evaluates (nil: every one)
	}
}

// bindKernels creates the engine's full-pass kernel closures.
func (e *Engine) bindKernels() {
	// Only stored pins are rebuilt: a derived pin's one reader replays it, and
	// nothing but LaneTopEntries reads a dead pin.
	e.kern.level = func(id, lo, hi int) {
		ms := e.run.scratch[id]
		for _, p := range e.run.pins[lo:hi] {
			if e.rows[p].stored() {
				e.run.v.recompute(e.run.sign, p, ms, e.run.v.row(p))
			}
		}
	}
	// Fused narrow levels: the group's spans fit the pool's serial cutoff, so
	// the launch is one inline chunk on the caller and the level-order walk
	// preserves inter-level dependencies.
	e.kern.fused = func(id, _, _ int) {
		ms, st := e.run.scratch[id], e.st
		for l := e.run.lo; l < e.run.hi; l++ {
			for _, p := range st.levelPins(l) {
				if e.rows[p].stored() {
					e.run.v.recompute(e.run.sign, p, ms, e.run.v.row(p))
				}
			}
		}
	}
	e.kern.backward = func(id, lo, hi int) {
		ms := e.run.scratch[id]
		for _, p := range e.run.pins[lo:hi] {
			e.backpropPin(p, e.run.lane, ms)
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
	cutoff := e.pool.Grain()
	plan := make([]levelGroup, 0, e.st.NumLevels)
	for l := 0; l < e.st.NumLevels; l++ {
		n := len(e.st.levelPins(l))
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
// from the engine while it runs. The engine owns one for its in-place wave — a
// structural edit mutates base state, so calls are exclusive — while every
// Overlay owns its own, because many overlays may evaluate concurrently over
// one frozen base.
type propScratch struct {
	// rebuild is what a wave does to stored pin bucket[i] = p on a
	// participant's scratch: view.rebuild of each of the owner's views into a
	// row of its choosing, then whatever the owner does with that row,
	// reporting the views (lateMoved, earlyMoved) whose queues changed in any
	// lane. It runs inside the level's kernel, concurrently for different i.
	rebuild func(i int, p int32, ms *mergeScratch) uint8
	// bind, when set, runs serially on each level's bucket before its kernel:
	// an overlay takes the bucket's fresh shadow rows there. settle, when set,
	// is told serially, in bucket order and after the kernel has returned,
	// each pin: an overlay points the pins at their new rows there, because
	// the index must not be written inside the kernel (parents at lower levels
	// are read concurrently through it).
	bind   func(bucket []int32)
	settle func(i int, p int32)

	buckets [][]int32
	// Queued-pin set as an epoch-stamped slice: queuedAt[p] == stamp means p
	// is in a bucket this call. Reset is O(1) (bump the stamp), membership is
	// one indexed load — a wavefront covering tens of thousands of pins pays
	// no map overhead on its hottest dedupe check.
	queuedAt []uint32
	stamp    uint32
	changed  []uint8
	scratch  []*mergeScratch // borrowed by coneWave for its duration, nil outside
	// eps and holdEps list, in settle order, the endpoints whose late and early
	// queues the last wave changed: the slacks its owner re-evaluates.
	eps, holdEps []int32

	// The level kernel is bound once per scratch and reads the launched
	// bucket through this field — a closure literal per launch would escape
	// into the pool's job slot and cost one allocation per level.
	bucket []int32
	kernFn func(id, lo, hi int)
}

// The views a cone wave rebuilds a pin in, as bits of what its rebuild moved.
const (
	lateMoved uint8 = 1 << iota
	earlyMoved
)

// newPropScratch sizes a wave scratch for e's current graph around its owner's
// hooks. A derived pin is never handed to rebuild: it has no row, and the
// wave passes on to its one child, which replays it. A dead pin is never in a
// bucket (coneWave).
func (e *Engine) newPropScratch(rebuild func(int, int32, *mergeScratch) uint8, bind func([]int32), settle func(int, int32)) *propScratch {
	s := &propScratch{
		rebuild: rebuild, bind: bind, settle: settle,
		buckets:  make([][]int32, e.st.NumLevels),
		queuedAt: make([]uint32, e.st.NumPins),
		stamp:    1,
	}
	s.kernFn = func(id, lo, hi int) {
		ms := s.scratch[id]
		for i := lo; i < hi; i++ {
			s.changed[i] = lateMoved | earlyMoved
			if p := s.bucket[i]; e.rows[p].stored() {
				s.changed[i] = s.rebuild(i, p, ms)
			}
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

// seedArcs enqueues the destination of every arc in arcs that is not dead.
func (s *propScratch) seedArcs(e *Engine, arcs []int32) {
	for _, a := range arcs {
		if to := e.st.ArcTo[a]; !e.rows[to].dead {
			s.push(e.st.LvLevel, to)
		}
	}
}

// reset empties the wavefront state for reuse, keeping all capacity. The
// queued set clears by bumping the stamp; on the (2^32 calls) wraparound the
// slice is scrubbed so stale stamps can never read as queued.
func (s *propScratch) reset() {
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.eps, s.holdEps = s.eps[:0], s.holdEps[:0]
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
// engine's phase and per-level timings. It replaces Options.Tracer, so an
// engine Fork builds from this one records to it too. Safe to call between
// passes; not concurrently with one.
func (e *Engine) SetTracer(t *obs.Tracer) { e.opt.Tracer = t }

// Tracer returns the attached span tracer (nil when none).
func (e *Engine) Tracer() *obs.Tracer { return e.opt.Tracer }

// KernelStats snapshots the collected kernel profiles (nil before
// EnableKernelStats).
func (e *Engine) KernelStats() []sched.KernelProfile {
	if s := e.pool.Stats(); s != nil {
		return s.Snapshot()
	}
	return nil
}

// rowSpan is one pin's tensor row: it starts off units into each rf block and
// holds k slots per lane, k being the pin's capacity (rowCap) — unless the pin
// is derived (derivedPin) or dead (livePin), when the row is empty: a derived
// pin's one reader replays its queues (view.replay), k slots per lane, where
// it needs them, and a dead pin's are rebuilt only when LaneTopEntries asks
// (view.revive). A dead pin is never derived.
type rowSpan struct {
	off, k        int32
	derived, dead bool
}

// stored reports whether the pin keeps its queues in the tensors.
func (r rowSpan) stored() bool { return !r.derived && !r.dead }

// slots is how many slots each lane's queue owns in the tensors.
func (r rowSpan) slots() int32 {
	if !r.stored() {
		return 0
	}
	return r.k
}

// rowCap is pin p's capacity over st given its parents' rows: 1 for a startpoint
// or a pin with no fan-in, else min(K, the sum of cap(parent) over p's fan-in
// arcs). By induction over the levels, a capacity below K is at least the
// number of distinct startpoints that can reach p — a startpoint's queue holds
// itself, and a non-unate arc brings both of a parent's queues, whose
// startpoints are the parent's — so no queue at p ever holds more live
// entries. While its queue has room a c-slot merge writes what a K-slot one
// does; once a queue with c < K is full (n = c), every startpoint that can
// reach p is queued, so the full-queue reject only drops an entry that the
// K-slot merge also drops after comparing it with its own startpoint's entry,
// which sits at or above the minimum. A row of c slots therefore holds exactly
// the K-slot queue, order and tie-breaks included. The sum is never below a
// parent's term, so a parent's row always fits its child's.
func rowCap(st *State, rows []rowSpan, p int32, topK int) int32 {
	lo, hi := st.FaninStart[p], st.FaninStart[p+1]
	if st.SpOfPin[p] >= 0 || lo == hi {
		return 1
	}
	c := 0
	for _, from := range st.FaninFrom[lo:hi] {
		if c += int(rows[from].k); c >= topK {
			return int32(topK)
		}
	}
	return int32(c)
}

// derivedPin reports whether pin p is derived over st: its one fan-in arc is
// unate, it has one fan-out, it is neither a startpoint nor an endpoint, and
// its child is not a startpoint. Its queues are then a shifted copy of its
// parent's (shift) read by nobody but its child, which replays them from
// the nearest stored ancestor when it is rebuilt (view.replay) or
// differentiated (backpropPin), so the pin keeps no row. Its capacity is its
// parent's.
func derivedPin(st *State, p int32) bool {
	lo, fo := st.FaninStart[p], st.FoStart[p]
	if st.FaninStart[p+1]-lo != 1 || liberty.Unate(st.FaninSense[lo]) == liberty.NonUnate ||
		st.FoStart[p+1]-fo != 1 || st.SpOfPin[p] >= 0 || st.EpOfPin[p] >= 0 {
		return false
	}
	return st.SpOfPin[st.FoAdj[fo]] < 0
}

// livePin reports whether an endpoint can be reached from pin p over st given
// its children's rows: p is an endpoint or a child is live. A pin that is not
// (a dead pin) feeds no slack, gradient or preview, so it keeps no row and no
// pass or wave rebuilds it; a live pin's parents are live, so no rebuild ever
// reads one.
func livePin(st *State, rows []rowSpan, p int32) bool {
	if st.EpOfPin[p] >= 0 {
		return true
	}
	for _, c := range st.FoAdj[st.FoStart[p]:st.FoStart[p+1]] {
		if !rows[c].dead {
			return true
		}
	}
	return false
}

// base returns the flat offset of stored (rf, pin)'s lane-0 Top-K queue and
// k, the pin's capacity: lane s follows at +s*k and the pin's whole row is
// S*k slots long. It is the only place a pin becomes a tensor offset. The rf
// stride is capUnits, not rowUnits: an engine may carry tensor headroom
// beyond its rows so structural reseeds grow in place.
func (e *Engine) base(rf int, pin int32) (b, k int) {
	r := e.rows[pin]
	return (rf*e.capUnits + int(r.off)) * len(e.scns), int(r.k)
}

// rowSlots is the length of pin p's row per rf: S times its slots per lane,
// 0 for a derived or dead pin.
func (e *Engine) rowSlots(p int32) int { return len(e.scns) * int(e.rows[p].slots()) }

// Lanes returns S, the number of scenarios the engine propagates together.
func (e *Engine) Lanes() int { return len(e.scns) }

// NumLevels returns the timing level count; INSTA's runtime scales with this
// rather than with pin count (paper §IV-A).
func (e *Engine) NumLevels() int { return e.st.NumLevels }

// MemoryBytes returns the engine's resident state footprint: the Top-K
// tensors and their row spans, arc annotations, CSR topology and SP/EP tables —
// the analogue of Table I's GPU memory column. The tensors and endpoint
// results grow with the lane count, the graph does not. Gradient buffers and
// merge scratch sets are counted once allocated.
func (e *Engine) MemoryBytes() int64 {
	b := e.tensorBytes() + e.scratchBytes()
	b += int64(len(e.st.ArcFrom)) * (8*4 + 4*4 + 1) // mean/std both rf + ids + kind
	b += int64(len(e.st.FaninArc)+len(e.st.FaninFrom)) * 4
	b += int64(len(e.st.FaninSense))
	b += int64(len(e.st.FaninStart)+len(e.st.SpOfPin)) * 4
	b += int64(len(e.rows)) * int64(unsafe.Sizeof(rowSpan{}))
	b += int64(len(e.st.LvOrder)+len(e.st.LvLevel)+len(e.st.LvLevelStart)) * 4
	b += int64(len(e.st.SpPin)) * (4 + 4 + 8 + 8)
	b += int64(len(e.st.EpPin)) * (4 + 4 + 8 + 8)
	b += int64(len(e.epSlack)) * (8 + 4 + 1)
	if e.hold != nil {
		b += int64(len(e.hold.epSlack)) * 8
	}
	if g := e.grad; g != nil {
		b += int64(len(g.gradArr[0])) * 2 * 8      // arrival-gradient plane, both rf
		b += int64(len(g.seedMean[0])) * 2 * 2 * 8 // endpoint seed planes, both rf
		b += int64(len(g.gradMean[0])) * 2 * 4 * 8 // arc grad + flow planes, both rf
	}
	return b
}

// tensorBytes is the allocated size of the Top-K tensors, late and early.
func (e *Engine) tensorBytes() int64 {
	b := e.top.q.bytes()
	if e.hold != nil {
		b += e.hold.q.bytes()
	}
	return b
}

// NumPins returns the pin count of the initialized graph.
func (e *Engine) NumPins() int { return e.st.NumPins }

// NumArcs returns the arc count.
func (e *Engine) NumArcs() int { return len(e.st.ArcFrom) }

// TopK returns the configured K.
func (e *Engine) TopK() int { return e.opt.TopK }

// SetArcDelay re-annotates one arc's delay distribution for output
// transition rf, the estimate_eco re-annotation entry point (Fig. 2's
// "update delays" path).
func (e *Engine) SetArcDelay(arc int32, rf int, d num.Dist) {
	e.st.ArcMean[rf][arc] = d.Mean
	e.st.ArcStd[rf][arc] = d.Std
}

// ArcDelay returns the current annotation of arc for transition rf.
func (e *Engine) ArcDelay(arc int32, rf int) num.Dist {
	return num.Dist{Mean: e.st.ArcMean[rf][arc], Std: e.st.ArcStd[rf][arc]}
}

// Endpoints returns the endpoint pin ids in extraction order.
func (e *Engine) Endpoints() []int32 { return e.st.EpPin }

// excLookup adapts the pin-keyed sdc exception table.
func (e *Engine) excLookup(spPin, epPin int32) sdc.Adjust {
	return e.exc.Lookup(netlist.PinID(spPin), netlist.PinID(epPin))
}
