// Package sched provides the persistent execution layer every INSTA kernel
// dispatches onto: a worker pool created once per engine and reused across
// forward, hold, backward and incremental passes.
//
// The paper's GPU runtime launches one massively parallel kernel per timing
// level, so propagation cost scales with the level count, not the pin count
// (§III-A/§IV-A). The CPU analogue here must not pay a goroutine spawn per
// level per pass — deep-but-narrow graphs launch thousands of kernels per
// propagation — so the pool parks its workers on a channel between launches
// and wakes only as many as a launch has chunks for.
//
// Work is distributed by atomic chunk claiming rather than fixed even splits:
// every participant (the calling goroutine included) repeatedly claims the
// next grain-sized index range until the launch is drained. Uneven per-pin
// cost (Top-K merges vary with fan-in and queue occupancy) therefore cannot
// strand a worker with the slowest fixed share. The grain is tunable and
// doubles as the serial cutoff: a launch with at most one chunk runs inline
// on the caller.
//
// Determinism: the pool never decides *what* a kernel computes, only which
// participant computes which chunk. Kernels that write disjoint state per
// index (all of INSTA's are) produce bit-identical results for any worker
// count and any claiming interleaving.
//
// Concurrency: Run/RunTagged may be called from multiple goroutines at once —
// the serving layer dispatches many what-if sessions onto one shared pool.
// Launches that go parallel serialize on an internal mutex (the pool has one
// in-flight job); launches small enough to run inline on the caller bypass
// the lock entirely, so independent small-cone evaluations proceed fully in
// parallel. Launches must not nest: a kernel body calling back into the same
// pool's Run would deadlock on the launch mutex.
//
// Faults: a kernel panic on any participant stops the launch and, once every
// helper is parked, is raised on the launching goroutine with the value and
// that participant's stack. The pool stays usable.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultGrain is the chunk size used when a Pool is created with grain <= 0.
// Each claimed chunk costs one atomic add; INSTA's per-pin kernels are heavy
// enough (Top-K queue merges) that 64 pins amortize it to noise while still
// splitting typical level widths into several claimable pieces.
const DefaultGrain = 64

// Auto-tuning bounds (grain <= 0 at New). A launch is split into roughly
// chunksPerWorker claimable pieces per participant — enough slack for the
// claiming loop to absorb uneven per-pin cost without paying an atomic add
// per handful of pins — and the chunk size is clamped to
// [DefaultGrain, maxAutoGrain] so tiny launches stay inline and huge levels
// still produce bounded chunk descriptors.
const (
	chunksPerWorker = 4
	maxAutoGrain    = 4096
)

// Pool is a handle to a persistent worker pool. Dropping the last reference
// releases the workers automatically (a runtime cleanup closes the pool), so
// holders need not call Close; Close remains available for deterministic
// release and is idempotent.
type Pool struct{ p *pool }

type pool struct {
	workers  int           // max claimers per launch, including the caller
	grain    int           // base chunk size (DefaultGrain when auto)
	auto     bool          // grain <= 0 at New: scale the chunk size per launch
	wake     chan struct{} // parked workers block here; buffered workers-1
	launchMu sync.Mutex    // serializes parallel launches from concurrent callers
	job      job
	stats    atomic.Pointer[Stats]
	close    sync.Once
}

// job is the state of the in-flight launch. Run does not return until every
// woken worker is done, so consecutive launches never overlap: the plain
// fields are published to workers by the wake-channel send and retired by the
// WaitGroup before being rewritten.
type job struct {
	fn        func(id, lo, hi int)
	n         int64
	grain     int64
	cursor    atomic.Int64 // next unclaimed index
	nextID    atomic.Int64 // participant ids handed out this launch (caller is 0)
	claimers  atomic.Int64 // participants that processed at least one chunk
	maxChunks atomic.Int64 // most chunks claimed by a single participant
	wg        sync.WaitGroup
	failed    atomic.Pointer[kernelPanic] // the launch's first panic
}

// kernelPanic is what a launch whose kernel panicked raises on its caller:
// the panic value and the stack of the participant it was raised on.
type kernelPanic struct {
	val   any
	stack []byte
}

func (k *kernelPanic) Error() string {
	return fmt.Sprintf("sched: kernel panic: %v\n\nparticipant stack:\n%s", k.val, k.stack)
}

// New creates a pool with the given worker count and grain size. workers <= 0
// selects runtime.NumCPU(); grain <= 0 selects auto-tuning (DefaultGrain as
// the floor, scaled up per launch so each participant claims roughly
// chunksPerWorker chunks). workers-1 goroutines are spawned immediately and
// parked; the calling goroutine is the remaining participant of every launch.
func New(workers, grain int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	auto := grain <= 0
	if auto {
		grain = DefaultGrain
	}
	p := &pool{
		workers: workers,
		grain:   grain,
		auto:    auto,
		wake:    make(chan struct{}, workers-1),
	}
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	h := &Pool{p}
	// Workers reference only the inner pool, so once the handle is
	// unreachable nothing can launch again and the cleanup may park them
	// permanently off.
	runtime.AddCleanup(h, func(ip *pool) { ip.closePool() }, p)
	return h
}

// Workers returns the pool's participant count (workers goroutines plus the
// caller counts as one of them).
func (h *Pool) Workers() int { return h.p.workers }

// Grain returns the base chunk size, which is also the largest launch size
// guaranteed to run inline on the calling goroutine in submission order (one
// chunk, no helpers, no launch mutex): auto-tuned pools only ever grow the
// chunk size beyond it. Callers use this to fuse work that must stay ordered
// — e.g. merging consecutive narrow levels into one launch — without risking
// a parallel split.
func (h *Pool) Grain() int { return h.p.grain }

// SetStats attaches a stats collector recording every subsequent launch; nil
// detaches. Attaching costs two time.Now calls and one mutex acquisition per
// launch; a detached pool records nothing.
func (h *Pool) SetStats(s *Stats) { h.p.stats.Store(s) }

// Stats returns the attached collector, or nil.
func (h *Pool) Stats() *Stats { return h.p.stats.Load() }

// Close releases the pool's workers. Idempotent. Calling Run after Close is a
// bug (it panics on the closed wake channel for parallel launches).
func (h *Pool) Close() { h.p.closePool() }

func (p *pool) closePool() {
	p.close.Do(func() { close(p.wake) })
}

// Run distributes fn over [0, n) and returns when every index has been
// processed exactly once. fn is called with half-open chunk ranges [lo, hi)
// from multiple goroutines concurrently; it must not assume any chunk order.
// Launches at most one chunk long run inline on the caller. Run is safe for
// concurrent use (see the package comment); launches must not nest.
func (h *Pool) Run(n int, fn func(lo, hi int)) {
	h.RunTagged("", -1, n, fn)
}

// RunTagged is Run with instrumentation identity: tag names the kernel and
// level identifies the launch within a pass (-1 when levels are meaningless,
// e.g. endpoint sweeps). The attached Stats collector, if any, aggregates
// spans, chunks, imbalance and wall time under that identity.
func (h *Pool) RunTagged(tag string, level, n int, fn func(lo, hi int)) {
	h.RunIndexed(tag, level, n, func(_, lo, hi int) { fn(lo, hi) })
}

// launchGrain picks the chunk size for a launch of n spans: the configured
// grain, or — for auto-tuned pools — a size that splits the launch into
// roughly chunksPerWorker chunks per participant, clamped to
// [grain, maxAutoGrain]. Bigger chunks on wide levels cut the atomic-claim
// and cache-bounce cost per span without starving the claiming loop of
// stealable work.
func (p *pool) launchGrain(n, participants int) int {
	g := p.grain
	if !p.auto {
		return g
	}
	if target := n / (chunksPerWorker * participants); target > g {
		g = target
		if g > maxAutoGrain {
			g = maxAutoGrain
		}
	}
	return g
}

// RunIndexed is RunTagged with participant identity: fn additionally receives
// the claiming participant's id, a small dense integer in [0, Workers()) that
// is stable for the duration of one chunk and unique across concurrently
// running participants of the launch. Kernels use it to index pre-allocated
// per-participant scratch without allocating inside the launch or paying a
// sync.Pool round-trip per chunk. Ids are NOT stable across chunks of one
// launch (a participant keeps its id while claiming, but which participant
// claims which chunk is nondeterministic) — only disjoint-scratch use is
// sound.
func (h *Pool) RunIndexed(tag string, level, n int, fn func(id, lo, hi int)) {
	p := h.p
	if n <= 0 {
		return
	}
	stats := p.stats.Load()
	var start time.Time
	if stats != nil {
		start = time.Now()
	}
	// Never recruit more participants than the runtime can execute: helpers
	// beyond GOMAXPROCS only add wake/park churn and atomic contention while
	// the claiming loop drains the launch at hardware width anyway. On a
	// single-CPU machine this collapses every launch to the serial inline
	// path, which is exactly the fastest schedule available there.
	participants := p.workers
	if mp := runtime.GOMAXPROCS(0); participants > mp {
		participants = mp
	}
	grain := p.launchGrain(n, participants)
	nchunks := (n + grain - 1) / grain
	helpers := participants - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	if helpers <= 0 {
		fn(0, 0, n)
		if stats != nil {
			stats.record(tag, level, launchRecord{
				spans: int64(n), chunks: 1, claimers: 1, serial: true,
				wall: time.Since(start),
			})
		}
		return
	}
	p.launchMu.Lock()
	defer p.launchMu.Unlock()
	j := &p.job
	j.fn, j.n, j.grain = fn, int64(n), int64(grain)
	j.cursor.Store(0)
	j.nextID.Store(0)
	j.claimers.Store(0)
	j.maxChunks.Store(0)
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.wake <- struct{}{}
	}
	p.runChunks(0)
	j.wg.Wait()
	j.fn = nil
	if f := j.failed.Swap(nil); f != nil {
		panic(f)
	}
	if stats != nil {
		stats.record(tag, level, launchRecord{
			spans:     int64(n),
			chunks:    int64(nchunks),
			claimers:  j.claimers.Load(),
			maxChunks: j.maxChunks.Load(),
			wall:      time.Since(start),
		})
	}
}

func (p *pool) worker() {
	for range p.wake {
		p.runChunks(int(p.job.nextID.Add(1)))
		p.job.wg.Done()
	}
}

// runChunks claims grain-sized chunks until the launch is drained, then folds
// this participant's claim count into the launch's imbalance counters. id is
// this participant's dense identity for the launch (0 = the caller). A panic
// in fn is recovered once per launch: the first is kept for the caller, and
// the cursor is drained so that no participant claims another chunk.
func (p *pool) runChunks(id int) {
	j := &p.job
	n, grain, fn := j.n, j.grain, j.fn
	defer func() {
		if v := recover(); v != nil {
			j.failed.CompareAndSwap(nil, &kernelPanic{val: v, stack: debug.Stack()})
			j.cursor.Store(n)
		}
	}()
	var claimed int64
	for {
		lo := j.cursor.Add(grain) - grain
		if lo >= n {
			break
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		fn(id, int(lo), int(hi))
		claimed++
	}
	if claimed > 0 {
		j.claimers.Add(1)
		for {
			cur := j.maxChunks.Load()
			if claimed <= cur || j.maxChunks.CompareAndSwap(cur, claimed) {
				break
			}
		}
	}
}
