// Package server is the serving layer over one signoff-initialized INSTA
// engine: a session manager that hands out copy-on-write ECO sessions
// (overlay views over the frozen propagated base) and the HTTP/JSON front end
// cmd/insta-served mounts on it.
//
// One engine. A daemon serves exactly one lane-strided engine — the scenario
// engine it was given, or a single-lane engine wrapped as a one-scenario view
// — and every session holds exactly one overlay over it, so a what-if is
// propagated once however many corners are analysed. Everything "nominal"
// (top-level wns/tns/changed/slacks, base reads, gradients, commit manifests)
// is read from that engine's unit-scale lane, which holds bit for bit what a
// separate single-lane engine would compute (x*1.0 == x).
//
// Concurrency model. The base engine's propagated state is the shared
// snapshot. Session evaluations only read it (their writes land in private
// overlays), so they run under the manager's read lock — fully parallel
// across sessions, serialized per session by the session's own mutex.
// Anything that mutates the base — a session commit, a gradient pass, an
// Exclusive caller — takes the write lock, draining every in-flight
// evaluation first. Commits bump an epoch; a session created against an
// older epoch transparently rebases (re-derives its overlay against the new
// base, keeping its recorded arc deltas) on its next use, which gives every
// session sequential-application semantics: committing N sessions in any
// order lands the same state as applying their delta batches one after
// another.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/batch"
	"insta/internal/core"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/snap"
	"insta/internal/topo"
)

// Errors the HTTP layer maps to status codes.
var (
	ErrTooManySessions = errors.New("server: session admission cap reached")
	ErrSessionClosed   = errors.New("server: session closed")
	ErrNoRefEngine     = errors.New("server: resize ECOs need a reference engine")
	ErrNoCorners       = errors.New("server: multi-corner queries need a -corners engine")
	ErrNoSnapshots     = errors.New("server: snapshot save needs a -snapshot-dir cache")
	ErrUnknownScenario = errors.New("server: unknown scenario")
	// ErrStructuralConflict: the base was committed (annotation or structural)
	// after this session started structural edits, or structurally replaced
	// after annotation edits. The session's working engine was seeded from a
	// base that no longer exists, so there is nothing to merge against —
	// rollback and re-apply.
	ErrStructuralConflict = errors.New("server: base changed under this session's edits; rollback and retry")
	// ErrPendingAnnotations: a structural edit on a session holding
	// uncommitted overlay annotations — the topo working set is derived from
	// the committed base, so those deltas would silently vanish. Commit or
	// roll back first.
	ErrPendingAnnotations = errors.New("server: session has uncommitted annotation ECOs; commit or roll back before structural edits")
)

// Options tunes the session manager.
type Options struct {
	// MaxSessions is the admission cap: Create fails once this many sessions
	// are live, so overload degrades by rejecting. <= 0 selects 64.
	MaxSessions int
	// TTL is the idle lifetime a Sweep call uses to evict abandoned
	// sessions. <= 0 selects 5 minutes.
	TTL time.Duration
	// Batch, when non-nil, is the engine the manager serves, and turns
	// multi-corner serving on: each what-if is priced in every scenario by
	// the session's one cone re-propagation, results carry per-scenario and
	// merged rows, and commits fold into every lane. It must have a
	// unit-scale (1/1/1) scenario, which is served as the nominal view. The
	// manager owns Run/epoch handling; the caller owns Close.
	Batch *batch.Engine
	// ManifestDir, when non-empty, writes one obs run manifest per session
	// commit under this directory (WNS/TNS before/after, session id, eco
	// count) so the serving trajectory stays attributable offline.
	ManifestDir string
	// Design names the served design in commit manifests and log lines.
	Design string
	// Snapshots, when non-nil, enables POST /admin/snapshot (persist the
	// committed base state under Boot.Key) and exposes the cache counters on
	// /metrics.
	Snapshots *snap.Cache
	// Boot records how the daemon obtained its engine state, reported on
	// /healthz and used as the snapshot save key.
	Boot *BootInfo
}

// BootInfo is the boot provenance /healthz reports: whether the daemon
// warm-started from a snapshot or cold-built, under which content address,
// and how long that took.
type BootInfo struct {
	Mode        string  `json:"mode"` // "warm" or "cold"
	SnapshotKey string  `json:"snapshot_key,omitempty"`
	SnapLoadMS  float64 `json:"snap_load_ms,omitempty"`
	ColdBuildMS float64 `json:"cold_build_ms,omitempty"`
}

// Counters is a snapshot of the manager's lifetime counters.
type Counters struct {
	Created   int64
	Rejected  int64
	Evicted   int64
	Commits   int64
	Rollbacks int64
	ECOs      int64 // ECO batches evaluated
}

// Manager owns the base engine and the live session set.
type Manager struct {
	ref *refsta.Engine // nil disables resize-form ECOs and pin names
	opt Options

	// mu is the base-state lock: RLock for overlay evaluation, Lock for
	// anything that mutates the base engine. be (a structural commit replaces
	// it), epoch/baseWNS/baseTNS and the per-scenario base rows are guarded
	// by it.
	mu sync.RWMutex
	// be is the one engine served: Options.Batch, else the caller's engine
	// as a one-scenario view. nom is its unit-scale lane, resolved once; the
	// lane-0 shorthands (Slacks, WNS, Overlay.Slack) are never used here,
	// because lane 0 of {ss,tt,ff} is ss.
	be      *batch.Engine
	nom     int
	epoch   uint64
	baseWNS float64 // lane nom
	baseTNS float64
	baseScn []ScenarioView // committed per-scenario + merged rows; nil unless Options.Batch was given

	// Structural-ECO state, guarded by mu. topoGen bumps on every structural
	// commit (the base engine objects are replaced, not just re-annotated);
	// remapHist records each commit's arc remap so annotation sessions opened
	// against older structure can re-key their deltas lazily; baseRemap is the
	// composed extraction→current arc remap (nil while identity), through
	// which estimate_eco deltas — always in extraction space — are translated;
	// ownsBase marks a base engine installed by a structural commit (closed
	// on the next swap; the boot engine stays caller-owned).
	topoGen   uint64
	remapHist []remapGen
	baseRemap []int32
	extArcs   int // boot engine arc count: the domain of baseRemap
	ownsBase  bool

	// smu guards the session table only. Lock ordering: smu may be taken
	// while holding neither lock or after mu; never take mu or a session's
	// mutex while holding smu.
	smu      sync.Mutex
	sessions map[string]*Session
	nextID   uint64

	created, rejected, evicted   atomic.Int64
	commits, rollbacks, ecoTotal atomic.Int64
	topoEdits, topoInserted      atomic.Int64
	topoRemoved, topoCommits     atomic.Int64
	topoConflicts                atomic.Int64
	relevelHist                  *obs.Histogram // levels re-levelized per structural batch

	// Lock-free mirrors of epoch/topoGen, stored at each bump while mu is
	// held. The flight recorder stamps both onto every completed request;
	// reading the mu-guarded fields there would make request completion
	// block behind long structural commits.
	epochA   atomic.Uint64
	topoGenA atomic.Uint64

	// live is the live-session gauge, maintained at the table mutation
	// points (Create/remove) so readers — /healthz, /metrics, the flight
	// recorder path — never take smu just to count sessions.
	live obs.Gauge

	log *slog.Logger
}

// remapGen is one structural commit's arc remap: old-current → new-current ids
// over the pre-commit arc count, nil when the commit only appended arcs.
type remapGen struct {
	gen   uint64
	remap []int32
}

// relevelBounds buckets the per-batch re-levelized level span — the locality
// signal of incremental re-levelization (a design-deep edit re-levels
// hundreds, a leaf edit a handful).
var relevelBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// NewManager serves one initialized engine: opt.Batch when given, else e as a
// one-scenario view. The manager runs the one-time full evaluation here; the
// base is frozen afterwards. ref, when non-nil, provides estimate_eco
// resolution for resize-form ECOs and design names for reports.
//
// With opt.Batch set, e may be nil. A non-nil e is still brought to the
// evaluated state once, for callers that build overlays on it themselves, and
// is otherwise left alone: never retained, propagated, committed into or
// closed.
//
// NewManager panics when the served engine has no unit-scale scenario: there
// would be no lane to serve as nominal, and answering with some derated lane
// instead would be silently wrong.
func NewManager(e *core.Engine, ref *refsta.Engine, opt Options) *Manager {
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = 64
	}
	if opt.TTL <= 0 {
		opt.TTL = 5 * time.Minute
	}
	be := opt.Batch
	if be == nil {
		be = batch.Wrap(e)
	} else if e != nil {
		e.Run()
	}
	nom := be.UnitScenario()
	if nom < 0 {
		panic("server: the served engine has no unit-scale (1/1/1) scenario to read the nominal view from; add one to the scenario list (e.g. tt)")
	}
	be.Run()
	m := &Manager{
		ref:         ref,
		be:          be,
		nom:         nom,
		opt:         opt,
		sessions:    make(map[string]*Session),
		extArcs:     be.NumArcs(),
		relevelHist: obs.NewHistogram(relevelBounds),
		log:         slog.Default(),
	}
	m.baseWNS, m.baseTNS = be.WNS(nom), be.TNS(nom)
	if opt.Batch != nil {
		m.baseScn = scenarioBaseViews(be)
	}
	return m
}

// scenarioBaseViews snapshots the engine's committed figures: one row per
// scenario plus a trailing "merged" row (per-endpoint worst corner).
func scenarioBaseViews(be *batch.Engine) []ScenarioView {
	v := be.Merged()
	out := make([]ScenarioView, 0, len(v.PerScenario)+1)
	for _, m := range v.PerScenario {
		out = append(out, ScenarioView{Name: m.Name, WNS: m.WNS, TNS: m.TNS, Violations: m.Violations})
	}
	out = append(out, ScenarioView{Name: "merged", WNS: v.WNS, TNS: v.TNS, Violations: v.Violations})
	return out
}

// SetLogger replaces the manager's structured logger (slog.Default() until
// then). Session lifecycle events log at Debug, commits at Info.
func (m *Manager) SetLogger(l *slog.Logger) { m.log = l }

// debugLog reports whether Debug-level lines would be emitted. Hot paths
// check it before calling Debug: assembling the variadic attribute list
// allocates even when the handler drops the record, and the serving steady
// state is held to zero allocations per request.
func (m *Manager) debugLog() bool {
	return m.log.Enabled(context.Background(), slog.LevelDebug)
}

// Engine returns the served engine, every lane of it. Callers must not
// mutate it outside Exclusive. Its lane-0 shorthands (Slacks, WNS, Backward)
// read scenario 0, which is the nominal view only on a single-corner server;
// BaseSlacks/BaseWNS/BaseTNS/Gradients read the nominal lane on any.
func (m *Manager) Engine() *core.Engine { return m.be.Engine }

// Ref returns the reference engine, or nil.
func (m *Manager) Ref() *refsta.Engine { return m.ref }

// Batch returns the served engine's scenario view, or nil when the server was
// started single-corner. Callers must not mutate it outside Exclusive.
func (m *Manager) Batch() *batch.Engine {
	if m.baseScn == nil {
		return nil
	}
	return m.be
}

// Snapshots returns the snapshot cache, or nil when snapshot saving is
// disabled.
func (m *Manager) Snapshots() *snap.Cache { return m.opt.Snapshots }

// Boot returns the boot provenance, or nil when the caller didn't record it.
func (m *Manager) Boot() *BootInfo { return m.opt.Boot }

// SaveSnapshot exports the committed base state — the engine's current arc
// annotations over the shared compiled skeleton, plus its scenario list on
// multi-corner servers — and stores it in the snapshot
// cache under the boot key, so the next daemon start warm-boots into the
// ECO'd state rather than the original extraction. The export runs under the
// base read lock: sessions keep evaluating, while commits wait for the write
// to finish (the snapshot is a consistent epoch, never a torn one).
func (m *Manager) SaveSnapshot() (path string, size int64, key string, err error) {
	c := m.opt.Snapshots
	if c == nil || m.opt.Boot == nil || m.opt.Boot.SnapshotKey == "" {
		return "", 0, "", ErrNoSnapshots
	}
	key = m.opt.Boot.SnapshotKey
	m.mu.RLock()
	defer m.mu.RUnlock()
	var scns []batch.Scenario
	if m.baseScn != nil {
		scns = m.be.Scenarios()
	}
	path, size, err = c.Store(key, m.be.ExportState(), scns)
	return path, size, key, err
}

// Corners reports the committed per-scenario figures (nil when
// single-corner). The last row is the merged view.
func (m *Manager) Corners() []ScenarioView {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]ScenarioView(nil), m.baseScn...)
}

// mergedLane selects the per-endpoint worst scenario where a lane index is
// expected.
const mergedLane = -1

// laneLocked resolves a scenario name to a lane of the served engine: "" is
// the nominal lane, "merged" is mergedLane. Caller holds at least m.mu.RLock.
func (m *Manager) laneLocked(name string) (int, error) {
	switch {
	case name == "":
		return m.nom, nil
	case m.baseScn == nil:
		return 0, ErrNoCorners
	case name == "merged":
		return mergedLane, nil
	}
	if s := m.be.ScenarioIndex(name); s >= 0 {
		return s, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownScenario, name)
}

// laneSlacksInto copies one lane of eng's endpoint slacks (or the merged
// view) into dst, growing it only when too small, and patches in the
// endpoints ov re-derived — the one body behind every full-vector read, base
// or session. ov may be nil.
func laneSlacksInto(eng *batch.Engine, ov *batch.Overlay, lane int, dst []float64) []float64 {
	var patch []int32
	if ov != nil {
		patch = ov.ChangedEndpointsView()
	}
	if lane == mergedLane {
		dst = eng.MergedSlacksInto(dst)
		for _, ep := range patch {
			dst[ep] = ov.MergedSlack(ep)
		}
		return dst
	}
	dst = eng.SlacksInto(lane, dst)
	for _, ep := range patch {
		dst[ep] = ov.Slack(lane, ep)
	}
	return dst
}

// BaseScenarioSlacks returns the committed endpoint slacks of one scenario,
// or the per-endpoint worst across scenarios for "merged".
func (m *Manager) BaseScenarioSlacks(name string) ([]float64, error) {
	return m.BaseScenarioSlacksInto(name, nil)
}

// BaseScenarioSlacksInto is the allocation-free form of BaseScenarioSlacks:
// dst is grown only when too small and returned filled.
func (m *Manager) BaseScenarioSlacksInto(name string, dst []float64) ([]float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	lane, err := m.laneLocked(name)
	if err != nil {
		return nil, err
	}
	return laneSlacksInto(m.be, nil, lane, dst), nil
}

// BaseView is one consistent read of the committed base: every field belongs
// to the same epoch.
type BaseView struct {
	Slacks   []float64      // the requested lane's endpoint slacks
	WNS, TNS float64        // of Slacks
	Epoch    uint64         // the epoch all of the above were committed at
	Corners  []ScenarioView // committed per-scenario rows; nil when single-corner
}

// BaseViewInto reads the committed base under one hold of the read lock, so
// a commit cannot land between the slacks and the figures reported with
// them. scenario "" is the nominal lane; dst is grown only when too small.
func (m *Manager) BaseViewInto(scenario string, dst []float64) (BaseView, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	lane, err := m.laneLocked(scenario)
	if err != nil {
		return BaseView{}, err
	}
	v := BaseView{
		Slacks:  laneSlacksInto(m.be, nil, lane, dst),
		WNS:     m.baseWNS,
		TNS:     m.baseTNS,
		Epoch:   m.epoch,
		Corners: append([]ScenarioView(nil), m.baseScn...),
	}
	if lane != m.nom {
		v.WNS, v.TNS = core.WNS(v.Slacks), core.TNS(v.Slacks)
	}
	return v, nil
}

// Epoch returns the current base epoch (bumped on every commit).
func (m *Manager) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// BaseWNS and BaseTNS report the committed base figures.
func (m *Manager) BaseWNS() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.baseWNS
}

func (m *Manager) BaseTNS() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.baseTNS
}

// BaseSlacks returns a copy of the committed endpoint slacks.
func (m *Manager) BaseSlacks() []float64 {
	return m.BaseSlacksInto(nil)
}

// BaseSlacksInto copies the committed endpoint slacks into dst, growing it
// only when too small, and returns the filled slice — the allocation-free
// serving read.
func (m *Manager) BaseSlacksInto(dst []float64) []float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return laneSlacksInto(m.be, nil, m.nom, dst)
}

// TopoCounters is a snapshot of the structural-ECO lifetime counters.
type TopoCounters struct {
	Edits     int64 // structural op batches applied
	Inserted  int64 // buffers spliced in
	Removed   int64 // buffers removed
	Commits   int64 // structural commits (base engine swaps)
	Conflicts int64 // edits/commits refused for a moved base
}

// TopoCountersSnapshot snapshots the structural-ECO counters.
func (m *Manager) TopoCountersSnapshot() TopoCounters {
	return TopoCounters{
		Edits:     m.topoEdits.Load(),
		Inserted:  m.topoInserted.Load(),
		Removed:   m.topoRemoved.Load(),
		Commits:   m.topoCommits.Load(),
		Conflicts: m.topoConflicts.Load(),
	}
}

// RelevelHist returns the histogram of levels re-levelized per structural
// batch, for /metrics exposition.
func (m *Manager) RelevelHist() *obs.Histogram { return m.relevelHist }

// TopoGen returns the structural generation (bumped on every structural
// commit; the epoch bumps too, so TopoGen only matters to callers that care
// whether the engine *objects* were replaced).
func (m *Manager) TopoGen() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.topoGen
}

// composedRemapSince folds the remaps of every structural commit after gen
// into one old→current arc remap (-1 = removed), or nil when ids survived
// unchanged. Caller holds at least m.mu.RLock.
func (m *Manager) composedRemapSince(gen uint64) []int32 {
	var acc []int32
	for _, g := range m.remapHist {
		if g.gen <= gen || g.remap == nil {
			continue
		}
		if acc == nil {
			acc = append([]int32(nil), g.remap...)
			continue
		}
		for i, cur := range acc {
			if cur >= 0 {
				acc[i] = g.remap[cur]
			}
		}
	}
	return acc
}

// refArcLocked translates an extraction-space arc id (the reference engine's
// space) to the current committed engine's space, or -1 if a structural
// commit removed the arc. Caller holds at least m.mu.RLock.
func (m *Manager) refArcLocked(a int32) int32 {
	if m.baseRemap == nil {
		return a
	}
	return m.baseRemap[a]
}

// curToRefLocked inverts refArcLocked: the extraction arc that became current
// arc a, or -1 for arcs that only exist post-edit (inserted buffers). Caller
// holds at least m.mu.RLock. Linear in the extraction arc count; only
// resolution paths for structural requests take it.
func (m *Manager) curToRefLocked(a int32) int32 {
	if m.baseRemap == nil {
		return a
	}
	for i, cur := range m.baseRemap {
		if cur == a {
			return int32(i)
		}
	}
	return -1
}

// Counters snapshots the lifetime counters.
func (m *Manager) Counters() Counters {
	return Counters{
		Created:   m.created.Load(),
		Rejected:  m.rejected.Load(),
		Evicted:   m.evicted.Load(),
		Commits:   m.commits.Load(),
		Rollbacks: m.rollbacks.Load(),
		ECOs:      m.ecoTotal.Load(),
	}
}

// NumSessions returns the live session count, read from the maintained gauge
// rather than by locking the session table.
func (m *Manager) NumSessions() int {
	return int(m.live.Value())
}

// LiveGauge returns the live-session gauge for metrics registration.
func (m *Manager) LiveGauge() *obs.Gauge { return &m.live }

// EpochFast returns the base epoch from its lock-free mirror — for
// per-request telemetry stamping, where Epoch()'s RLock would serialize
// against long commits.
func (m *Manager) EpochFast() uint64 { return m.epochA.Load() }

// TopoGenFast is EpochFast for the structural generation.
func (m *Manager) TopoGenFast() uint64 { return m.topoGenA.Load() }

// MaxSessions returns the admission cap Create enforces.
func (m *Manager) MaxSessions() int { return m.opt.MaxSessions }

// Create opens a new session against the current base, or fails with
// ErrTooManySessions at the admission cap.
func (m *Manager) Create() (*Session, error) {
	// The overlay must bind to the engine of one consistent epoch: hold the
	// read lock across the reads (a structural commit swaps m.be).
	m.mu.RLock()
	epoch, topoGen, be := m.epoch, m.topoGen, m.be
	m.mu.RUnlock()

	m.smu.Lock()
	defer m.smu.Unlock()
	if len(m.sessions) >= m.opt.MaxSessions {
		m.rejected.Add(1)
		return nil, ErrTooManySessions
	}
	m.nextID++
	s := &Session{
		m:       m,
		ID:      fmt.Sprintf("s%d", m.nextID),
		ov:      batch.NewOverlay(be),
		epoch:   epoch,
		topoGen: topoGen,
	}
	s.touch()
	m.sessions[s.ID] = s
	m.live.Inc()
	m.created.Add(1)
	if m.debugLog() {
		m.log.Debug("session created", "session", s.ID, "epoch", epoch)
	}
	return s, nil
}

// Get returns the live session with the given id, or nil.
func (m *Manager) Get(id string) *Session {
	m.smu.Lock()
	defer m.smu.Unlock()
	return m.sessions[id]
}

// SessionIDs returns the live session ids, sorted.
func (m *Manager) SessionIDs() []string {
	m.smu.Lock()
	defer m.smu.Unlock()
	out := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// remove unlinks id from the table and reports whether it was present.
func (m *Manager) remove(id string) bool {
	m.smu.Lock()
	defer m.smu.Unlock()
	if _, ok := m.sessions[id]; !ok {
		return false
	}
	delete(m.sessions, id)
	m.live.Dec()
	return true
}

// Sweep closes every session idle longer than the manager TTL and returns
// how many it evicted. cmd/insta-served runs this on a ticker.
func (m *Manager) Sweep(now time.Time) int {
	cutoff := now.Add(-m.opt.TTL).UnixNano()
	m.smu.Lock()
	var idle []*Session
	for _, s := range m.sessions {
		if s.lastUsed.Load() < cutoff {
			idle = append(idle, s)
		}
	}
	m.smu.Unlock()
	for _, s := range idle {
		if s.Close() {
			m.evicted.Add(1)
			if m.debugLog() {
				m.log.Debug("session evicted", "session", s.ID)
			}
		}
	}
	return len(idle)
}

// CloseAll closes every live session (shutdown drain).
func (m *Manager) CloseAll() {
	m.smu.Lock()
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.smu.Unlock()
	for _, s := range live {
		s.Close()
	}
}

// Close releases the engine the manager itself installed through a structural
// commit; the boot engine stays caller-owned. Call after CloseAll at shutdown
// (or in tests that commit structural edits).
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ownsBase {
		m.be.Close()
		m.ownsBase = false
	}
}

// Exclusive runs fn with exclusive access to the base engine — no session
// evaluates concurrently — and bumps the epoch afterwards so live sessions
// rebase against whatever fn changed. This is the hook in-process clients
// (the sizing driver) use for base mutations that bypass the session API,
// e.g. a full delay resync.
func (m *Manager) Exclusive(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn()
	m.advanceLocked()
}

// advanceLocked publishes a base that just changed: it bumps the epoch,
// re-reads the committed figures from the engine and returns them as a
// commit result, with deltas against the figures they replace. Caller holds
// m.mu.Lock.
func (m *Manager) advanceLocked() *ECOResult {
	prevWNS, prevTNS, prevScn := m.baseWNS, m.baseTNS, m.baseScn
	m.epoch++
	m.epochA.Store(m.epoch)
	m.baseWNS, m.baseTNS = m.be.WNS(m.nom), m.be.TNS(m.nom)
	res := &ECOResult{
		WNS:       m.baseWNS,
		TNS:       m.baseTNS,
		DeltaWNS:  m.baseWNS - prevWNS,
		DeltaTNS:  m.baseTNS - prevTNS,
		Epoch:     m.epoch,
		Committed: true,
	}
	if prevScn != nil {
		m.baseScn = scenarioBaseViews(m.be)
		res.Scenarios = make([]ScenarioView, len(m.baseScn))
		for i, v := range m.baseScn {
			v.DeltaWNS = v.WNS - prevScn[i].WNS
			v.DeltaTNS = v.TNS - prevScn[i].TNS
			res.Scenarios[i] = v
		}
	}
	return res
}

// finishCommitLocked is the tail every commit shares once the engine holds
// the new state: publish it (advanceLocked), re-point the session at it,
// count the commit and, with Options.ManifestDir, write its run manifest —
// the nominal lane's WNS/TNS before and after, plus the caller's extra keys.
// Caller holds s.mu and m.mu.Lock.
func (s *Session) finishCommitLocked(t0 time.Time, extra map[string]any) *ECOResult {
	m := s.m
	prevWNS, prevTNS := m.baseWNS, m.baseTNS
	res := m.advanceLocked()
	s.epoch = m.epoch
	m.commits.Add(1)
	if m.opt.ManifestDir == "" {
		return res
	}
	man := &obs.Manifest{
		Tool:      "insta-served-commit",
		Design:    m.opt.Design,
		StartedAt: t0,
		WallMS:    float64(time.Since(t0).Nanoseconds()) / 1e6,
		Pins:      m.be.NumPins(),
		Arcs:      m.be.NumArcs(),
		Endpoints: len(m.be.Endpoints()),
		Levels:    m.be.NumLevels(),
		TopK:      m.be.TopK(),
		Workers:   m.be.Pool().Workers(),
		WNSBefore: prevWNS,
		TNSBefore: prevTNS,
		WNSAfter:  res.WNS,
		TNSAfter:  res.TNS,
		Extra:     extra,
	}
	if m.baseScn != nil {
		for _, scn := range m.be.Scenarios() {
			man.Scenarios = append(man.Scenarios, scn.Name)
		}
	}
	man.AddExtra("session", s.ID)
	man.AddExtra("epoch", m.epoch)
	if path, err := obs.WriteManifest(m.opt.ManifestDir, man); err != nil {
		m.log.Warn("commit manifest write failed", "err", err)
	} else if m.debugLog() {
		m.log.Debug("commit manifest written", "path", path)
	}
	return res
}

// StageGrad is one cell's timing gradient, most negative first in Gradients'
// output (the INSTA-Size ranking signal).
type StageGrad struct {
	Cell int32   `json:"cell"`
	Name string  `json:"name,omitempty"`
	Grad float64 `json:"grad"`
}

// Gradients runs the backward pass on the committed base's nominal lane and
// returns the top stages by gradient magnitude (top <= 0 returns all). The pass writes the
// engine's gradient tensors, so it takes the write lock; the forward state
// is untouched, so sessions do not rebase.
func (m *Manager) Gradients(top int) []StageGrad {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.be.BackwardLane(m.nom, nil)
	stages := m.be.StageGradients()
	// Deterministic ranking: gradient magnitude, cell id on ties.
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].Grad != stages[j].Grad {
			return stages[i].Grad < stages[j].Grad
		}
		return stages[i].Cell < stages[j].Cell
	})
	if top > 0 && len(stages) > top {
		stages = stages[:top]
	}
	out := make([]StageGrad, len(stages))
	for i, st := range stages {
		out[i] = StageGrad{Cell: st.Cell, Grad: st.Grad}
		if m.ref != nil {
			out[i].Name = m.ref.D.Cells[st.Cell].Name
		}
	}
	return out
}

// ResizeReq is one resize-form ECO: swap the named cell instance to the
// named library cell. Resolved through the reference engine's estimate_eco.
type ResizeReq struct {
	Cell string `json:"cell"`
	Lib  string `json:"lib"`
}

// ArcECO is one raw arc re-annotation (the in-process / pre-resolved form).
type ArcECO struct {
	Arc  int32    `json:"arc"`
	Rise num.Dist `json:"rise"`
	Fall num.Dist `json:"fall"`
}

// ECORequest is one what-if batch: resizes resolved via estimate_eco, raw
// arc deltas, or both. The batch is validated before any of it is applied.
type ECORequest struct {
	Resizes []ResizeReq `json:"resizes,omitempty"`
	Arcs    []ArcECO    `json:"arcs,omitempty"`
}

// EndpointSlack is one changed endpoint in an ECO result. Slacks are clamped
// to ±1e30 for JSON (untimed endpoints are +Inf internally).
type EndpointSlack struct {
	Endpoint int     `json:"endpoint"`
	Pin      string  `json:"pin,omitempty"`
	Slack    float64 `json:"slack"`
	Base     float64 `json:"base_slack"`
}

// ScenarioView is one corner's figures in a multi-corner result; the last
// entry of a Scenarios list is always the "merged" row (per-endpoint worst
// corner). Deltas are against the committed base of the same scenario.
type ScenarioView struct {
	Name       string  `json:"name"`
	WNS        float64 `json:"wns"`
	TNS        float64 `json:"tns"`
	DeltaWNS   float64 `json:"delta_wns,omitempty"`
	DeltaTNS   float64 `json:"delta_tns,omitempty"`
	Violations int     `json:"violations,omitempty"`
}

// ECOResult is the session's view after an evaluation (or the committed base
// after Commit). The top-level figures are the nominal lane's. Changed lists
// the endpoints the overlay re-derived — on a multi-corner server that can
// include one only a derated lane moved, whose nominal slack equals its base.
// Scenarios is present when the server runs multi-corner: one row per corner
// plus the merged row, each priced by the same cone re-propagation that
// produced the nominal figures.
type ECOResult struct {
	WNS         float64         `json:"wns"`
	TNS         float64         `json:"tns"`
	DeltaWNS    float64         `json:"delta_wns"`
	DeltaTNS    float64         `json:"delta_tns"`
	Changed     []EndpointSlack `json:"changed,omitempty"`
	Scenarios   []ScenarioView  `json:"scenarios,omitempty"`
	TouchedArcs int             `json:"touched_arcs"`
	OverlayPins int             `json:"overlay_pins"`
	Epoch       uint64          `json:"epoch"`
	Committed   bool            `json:"committed,omitempty"`
}

type resolvedResize struct {
	cell netlist.CellID
	lib  int32
}

// TopoOp is one structural edit in a topo batch. Arc ids are in the session's
// current working space: identical to the committed engine's ids until the
// session's first structural batch, and tracked through the new_arcs ranges
// the topo responses report after that.
//
//   - "buffer":   splice a buffer into net arc Arc at position Frac (0 =
//     driver, default 0.5); Lib names the buffer cell (default BUF_X4) and the
//     gate delay comes from the reference engine's frozen-slew estimate.
//   - "unbuffer": remove the buffer whose cell arc is Arc, restoring the
//     through-wire.
//   - "repower":  swap instance Cell to library cell Lib; resolved to arc
//     re-annotations via estimate_eco and replayed into the signoff netlist
//     on commit.
//   - "move":     place instance Cell at (X, Y); resolved to wire/driver arc
//     re-annotations via the frozen-slew move estimate, replayed on commit.
//   - "annotate": set arc Arc's delay to Rise/Fall directly.
type TopoOp struct {
	Op   string   `json:"op"`
	Arc  int32    `json:"arc,omitempty"`
	Cell string   `json:"cell,omitempty"`
	Lib  string   `json:"lib,omitempty"`
	Frac float64  `json:"frac,omitempty"`
	X    float64  `json:"x,omitempty"`
	Y    float64  `json:"y,omitempty"`
	Rise num.Dist `json:"rise,omitempty"`
	Fall num.Dist `json:"fall,omitempty"`
}

// TopoRequest is one structural edit batch, validated and applied atomically.
type TopoRequest struct {
	Ops []TopoOp `json:"ops"`
}

// TopoResult reports one structural batch: the session's post-edit timing view
// plus the batch's structural footprint. NewArcs is the session-space id range
// [lo, hi) of arcs this batch appended (each inserted buffer contributes its
// cell arc then its output net arc, in op order).
type TopoResult struct {
	View          *ECOResult `json:"view"`
	Inserted      int        `json:"inserted"`
	Removed       int        `json:"removed"`
	Annotated     int        `json:"annotated"`
	NewPins       int        `json:"new_pins"`
	NewArcs       [2]int     `json:"new_arcs"`
	RelevelLevels int        `json:"relevel_levels"`
	RelevelRegion int        `json:"relevel_region"`
	Edits         int        `json:"edits"` // cumulative structural batches this session
}

// Session is one copy-on-write what-if view. All methods are safe for
// concurrent use; calls on one session serialize on its mutex, while calls
// on different sessions share the base under the manager's read lock.
type Session struct {
	m  *Manager
	ID string

	lastUsed atomic.Int64 // unix nanos of the last touch

	mu      sync.Mutex
	ov      *batch.Overlay // the one copy-on-write view, every lane of the base
	epoch   uint64
	topoGen uint64           // structural generation the overlay binds to
	ts      *topo.Session    // non-nil once the session holds structural edits
	resizes []resolvedResize // netlist changes to replay on commit
	moves   []resolvedMove
	closed  bool
	ecoN    int
}

type resolvedMove struct {
	cell netlist.CellID
	x, y float64
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// rebindLocked re-targets the overlay at the manager's current engine after a
// structural commit replaced it, re-keying recorded deltas through remap
// (nil = identity). Caller holds s.mu and at least m.mu.RLock.
func (s *Session) rebindLocked(remap []int32) {
	s.ov.RebaseStructural(s.m.be.Engine, remap)
	s.topoGen = s.m.topoGen
}

// rebaseLocked re-derives the overlay against the current base if a commit
// happened since this session last evaluated. Caller holds s.mu and at least
// m.mu.RLock.
//
// Two rebase shapes exist. An annotation commit keeps the engine object, so
// the overlay re-derives in place (Rebase). A structural commit replaced it,
// so the overlay re-binds to the new engine with its recorded deltas re-keyed
// through the commits' arc remaps (RebaseStructural) — bit-identical to having
// recorded the deltas against the new base from the start. A session that
// itself holds structural edits cannot rebase: its working engine was seeded
// from a base that no longer exists, so it conflicts instead.
func (s *Session) rebaseLocked() error {
	m := s.m
	if s.topoGen != m.topoGen {
		if s.ts != nil {
			m.topoConflicts.Add(1)
			return ErrStructuralConflict
		}
		s.rebindLocked(m.composedRemapSince(s.topoGen))
		s.ov.Propagate()
		s.epoch = m.epoch
		return nil
	}
	if s.epoch == m.epoch {
		return nil
	}
	if s.ts != nil {
		// An annotation commit moved the base under this session's seeded
		// engine; its figures are against dead state.
		m.topoConflicts.Add(1)
		return ErrStructuralConflict
	}
	s.ov.Rebase()
	s.ov.Propagate()
	s.epoch = m.epoch
	return nil
}

// jsonSlack clamps ±Inf (untimed endpoints) to representable JSON numbers.
func jsonSlack(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e30
	}
	if math.IsInf(v, -1) {
		return -1e30
	}
	return v
}

// figures is what a view's WNS/TNS rows are read from: a session's overlay,
// or the working engine of one holding structural edits.
type figures interface {
	WNS(s int) float64
	TNS(s int) float64
	MergedWNS() float64
	MergedTNS() float64
}

// scenarioRowsLocked prices src in every corner: one row per scenario with
// ΔWNS/ΔTNS against that scenario's committed base, plus the merged row.
// Caller holds at least m.mu.RLock.
func (m *Manager) scenarioRowsLocked(src figures) []ScenarioView {
	out := make([]ScenarioView, len(m.baseScn))
	for i, b := range m.baseScn {
		var wns, tns float64
		if b.Name == "merged" {
			wns, tns = src.MergedWNS(), src.MergedTNS()
		} else {
			wns, tns = src.WNS(i), src.TNS(i)
		}
		out[i] = ScenarioView{
			Name:     b.Name,
			WNS:      wns,
			TNS:      tns,
			DeltaWNS: wns - b.WNS,
			DeltaTNS: tns - b.TNS,
		}
	}
	return out
}

// resultLocked builds the session's current view: the nominal lane's figures
// and changed endpoints, and on a multi-corner server the per-scenario rows.
//
// A session holding structural edits reads its seeded working engine instead
// of the overlay. Endpoint indices are stable across structural edits
// (startpoints and endpoints can never be spliced), so its Changed is the
// per-endpoint diff against the committed base, and OverlayPins reports the
// pin count of the last re-levelized region — the structural analogue of the
// overlay's recompute footprint. Caller holds s.mu and at least m.mu.RLock.
func (s *Session) resultLocked() *ECOResult {
	m := s.m
	res := &ECOResult{Epoch: s.epoch}
	var src figures
	if s.ts != nil {
		eng, st := m.be.Over(s.ts.Engine()), s.ts.Stats()
		src = eng
		res.TouchedArcs = st.Inserted*2 + st.Removed*2 + st.Annotated
		res.OverlayPins = st.Relevel.Region
		base := m.be.LaneSlacks(m.nom)
		for i, sl := range eng.LaneSlacks(m.nom) {
			if sl != base[i] {
				res.Changed = append(res.Changed, m.endpointSlackLocked(i, sl))
			}
		}
	} else {
		st := s.ov.Stats()
		src = s.ov
		res.TouchedArcs = st.TouchedArcs
		res.OverlayPins = st.OverlayPins
		for _, ep := range s.ov.ChangedEndpointsView() {
			res.Changed = append(res.Changed, m.endpointSlackLocked(int(ep), s.ov.Slack(m.nom, ep)))
		}
	}
	res.WNS, res.TNS = src.WNS(m.nom), src.TNS(m.nom)
	res.DeltaWNS = res.WNS - m.baseWNS
	res.DeltaTNS = res.TNS - m.baseTNS
	if m.baseScn != nil {
		res.Scenarios = m.scenarioRowsLocked(src)
	}
	return res
}

// endpointSlackLocked reports endpoint ep at nominal slack next to its
// committed nominal slack. Caller holds at least m.mu.RLock.
func (m *Manager) endpointSlackLocked(ep int, slack float64) EndpointSlack {
	es := EndpointSlack{
		Endpoint: ep,
		Slack:    jsonSlack(slack),
		Base:     jsonSlack(m.be.LaneSlacks(m.nom)[ep]),
	}
	if m.ref != nil {
		es.Pin = m.ref.D.Pins[m.be.Endpoints()[ep]].Name
	}
	return es
}

// applyArcLocked records one arc re-annotation in the overlay, in nominal
// units; every lane sees it through its scale factors.
func (s *Session) applyArcLocked(arc int32, rise, fall num.Dist) {
	s.ov.Overlay.SetArcDelay(arc, 0, rise)
	s.ov.Overlay.SetArcDelay(arc, 1, fall)
}

// checkDelay rejects arc delays no timing engine can propagate: a non-finite
// mean, or a negative or non-finite sigma. One NaN annotation would otherwise
// spread through every queue downstream of it and, on commit, into the base.
func checkDelay(ds ...num.Dist) error {
	for _, d := range ds {
		if math.IsNaN(d.Mean) || math.IsInf(d.Mean, 0) {
			return fmt.Errorf("non-finite delay mean %v", d.Mean)
		}
		if math.IsNaN(d.Std) || math.IsInf(d.Std, 0) || d.Std < 0 {
			return fmt.Errorf("delay sigma %v is negative or non-finite", d.Std)
		}
	}
	return nil
}

// arcLimitLocked is the exclusive upper bound of arc ids the session accepts:
// the served engine's, or its structural working set's once it has one.
// Caller holds s.mu and at least m.mu.RLock.
func (s *Session) arcLimitLocked() int {
	if s.ts != nil {
		return len(s.ts.Tables().Arcs)
	}
	return s.m.be.NumArcs()
}

// ApplyECO validates and applies one what-if batch to the session's overlay,
// re-propagates the affected cones, and returns the session's new view
// (ΔWNS/ΔTNS plus every endpoint whose slack the overlay re-derived). The
// base engine is untouched. On a validation error nothing is applied.
func (s *Session) ApplyECO(req ECORequest) (*ECOResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.touch()
	m := s.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := s.rebaseLocked(); err != nil {
		return nil, err
	}

	// Resolve and validate the whole batch before applying any of it.
	type resolved struct {
		deltas []refsta.ArcDelta
		rz     resolvedResize
	}
	resolvedRz := make([]resolved, 0, len(req.Resizes))
	for _, rz := range req.Resizes {
		if m.ref == nil {
			return nil, ErrNoRefEngine
		}
		c, ok := m.ref.D.CellByName(rz.Cell)
		if !ok {
			return nil, fmt.Errorf("server: unknown cell %q", rz.Cell)
		}
		lib, ok := m.ref.Lib.CellByName(rz.Lib)
		if !ok {
			return nil, fmt.Errorf("server: unknown library cell %q", rz.Lib)
		}
		deltas, err := m.ref.EstimateECO(c, lib)
		if err != nil {
			return nil, fmt.Errorf("server: estimate_eco %s -> %s: %w", rz.Cell, rz.Lib, err)
		}
		resolvedRz = append(resolvedRz, resolved{deltas: deltas, rz: resolvedResize{cell: c, lib: lib}})
	}
	arcLimit := s.arcLimitLocked()
	for _, a := range req.Arcs {
		if a.Arc < 0 || int(a.Arc) >= arcLimit {
			return nil, fmt.Errorf("server: arc %d out of range [0,%d)", a.Arc, arcLimit)
		}
		if err := checkDelay(a.Rise, a.Fall); err != nil {
			return nil, fmt.Errorf("server: arc %d: %w", a.Arc, err)
		}
	}

	if s.ts != nil {
		// Annotation ECOs landing on a session that already holds structural
		// edits fold into the structural working set, so the one cone re-prop
		// prices them against the edited topology.
		deltas := make([]topo.Delta, 0, len(req.Arcs)+4*len(resolvedRz))
		for _, r := range resolvedRz {
			for _, dl := range r.deltas {
				if a := s.tsArcFromRefLocked(dl.ArcID); a >= 0 {
					deltas = append(deltas, topo.Delta{Arc: a, Delay: dl.Delay})
				}
			}
		}
		for _, a := range req.Arcs {
			ta := s.tsArcLocked(a.Arc)
			if ta < 0 {
				return nil, fmt.Errorf("server: arc %d was removed by a structural edit", a.Arc)
			}
			deltas = append(deltas, topo.Delta{Arc: ta, Delay: [2]num.Dist{a.Rise, a.Fall}})
		}
		if err := s.ts.Annotate(deltas); err != nil {
			return nil, err
		}
	} else {
		for _, r := range resolvedRz {
			for _, dl := range r.deltas {
				// estimate_eco speaks extraction arc ids; a structural commit
				// may have moved (or removed) them in the served engine.
				if a := m.refArcLocked(dl.ArcID); a >= 0 {
					s.applyArcLocked(a, dl.Delay[0], dl.Delay[1])
				}
			}
		}
		for _, a := range req.Arcs {
			s.applyArcLocked(a.Arc, a.Rise, a.Fall)
		}
		s.ov.Propagate()
	}
	// The batch is in: only now record its resizes for the commit's netlist
	// replay, so a rejected batch leaves nothing behind.
	for _, r := range resolvedRz {
		s.resizes = append(s.resizes, r.rz)
	}
	s.ecoN++
	m.ecoTotal.Add(1)
	if m.debugLog() {
		m.log.Debug("eco applied", "session", s.ID, "eco", s.ecoN,
			"resizes", len(req.Resizes), "arcs", len(req.Arcs))
	}
	return s.resultLocked(), nil
}

// ApplyDeltas is the in-process fast path ApplyECO's arc form reduces to:
// annotate pre-computed estimate_eco deltas and re-propagate. The sizing
// driver uses it to preview candidates without JSON round-trips.
func (s *Session) ApplyDeltas(deltas []refsta.ArcDelta) (*ECOResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.touch()
	m := s.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := s.rebaseLocked(); err != nil {
		return nil, err
	}
	if s.ts != nil {
		tds := make([]topo.Delta, 0, len(deltas))
		for _, dl := range deltas {
			if a := s.tsArcFromRefLocked(dl.ArcID); a >= 0 {
				tds = append(tds, topo.Delta{Arc: a, Delay: dl.Delay})
			}
		}
		if err := s.ts.Annotate(tds); err != nil {
			return nil, err
		}
	} else {
		for _, dl := range deltas {
			if a := m.refArcLocked(dl.ArcID); a >= 0 {
				s.applyArcLocked(a, dl.Delay[0], dl.Delay[1])
			}
		}
		s.ov.Propagate()
	}
	s.ecoN++
	m.ecoTotal.Add(1)
	return s.resultLocked(), nil
}

// tsArcLocked maps a committed-engine arc id into the structural session's
// current space (-1 = removed by an edit). Arcs the session itself appended
// (ids past the remap) pass through unchanged, as does everything when the
// session holds no structural edits. Caller holds s.mu.
func (s *Session) tsArcLocked(a int32) int32 {
	if s.ts == nil {
		return a
	}
	r := s.ts.Remap()
	if r == nil || int(a) >= len(r) {
		return a
	}
	return r[a]
}

// sessionToRefLocked inverts the full id chain: a session-current arc id back
// to the extraction-space id the reference engine speaks, or -1 when the arc
// only exists post-edit (an inserted buffer's arcs) and so has no signoff
// counterpart to estimate from. Caller holds s.mu and at least m.mu.RLock.
func (s *Session) sessionToRefLocked(a int32) int32 {
	cur := a
	if s.ts != nil {
		if r := s.ts.Remap(); r != nil {
			cur = -1
			for i, v := range r {
				if v == a {
					cur = int32(i)
					break
				}
			}
			if cur < 0 {
				return -1
			}
		}
	}
	ref := s.m.curToRefLocked(cur)
	if ref < 0 || s.m.ref == nil || int(ref) >= s.m.ref.NumArcs() {
		return -1
	}
	return ref
}

// tsArcFromRefLocked maps an extraction-space arc id (estimate_eco output)
// into the structural session's current space, or -1 when some structural
// edit — committed or session-local — removed it.
func (s *Session) tsArcFromRefLocked(ref int32) int32 {
	cur := s.m.refArcLocked(ref)
	if cur < 0 {
		return -1
	}
	return s.tsArcLocked(cur)
}

// resolveTopoLocked validates one structural batch and resolves its ops into
// topo.Ops (delays priced by the reference engine's frozen-slew estimators)
// plus the netlist changes to replay on commit. Nothing is applied. Caller
// holds s.mu and at least m.mu.RLock.
func (s *Session) resolveTopoLocked(req TopoRequest) ([]topo.Op, []resolvedResize, []resolvedMove, error) {
	m := s.m
	arcLimit := int32(s.arcLimitLocked())
	ops := make([]topo.Op, 0, len(req.Ops))
	var rzs []resolvedResize
	var mvs []resolvedMove
	for i, op := range req.Ops {
		switch op.Op {
		case "buffer":
			if m.ref == nil {
				return nil, nil, nil, ErrNoRefEngine
			}
			if op.Arc < 0 || op.Arc >= arcLimit {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: arc %d out of range [0,%d)", i, op.Arc, arcLimit)
			}
			libName := op.Lib
			if libName == "" {
				libName = "BUF_X4"
			}
			lib, ok := m.ref.Lib.CellByName(libName)
			if !ok {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: unknown library cell %q", i, libName)
			}
			frac := op.Frac
			if frac == 0 {
				frac = 0.5
			}
			if math.IsNaN(frac) {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: frac is NaN", i)
			}
			ref := s.sessionToRefLocked(op.Arc)
			if ref < 0 {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: arc %d has no signoff counterpart to estimate from", i, op.Arc)
			}
			d, err := m.ref.EstimateBuffer(ref, lib, frac)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: %w", i, err)
			}
			// Inserted buffers have no design instance, so the spliced cell
			// arc carries no cell id (gradients skip it).
			ops = append(ops, topo.InsertBuffer(op.Arc, -1, d, frac))
			// The driver sheds the sink-side wire and pin for the buffer's
			// input cap: re-annotate its cell arcs at the reduced load (this
			// is the half of buffering that helps — every other sink of the
			// net rides the faster driver). At most one buffered branch per
			// driver per batch: a second would claim the same driver arcs.
			dds, err := m.ref.EstimateBufferDriver(ref, lib, frac)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: %w", i, err)
			}
			for _, dl := range dds {
				if a := s.tsArcFromRefLocked(dl.ArcID); a >= 0 {
					ops = append(ops, topo.Annotate(a, dl.Delay))
				}
			}
		case "unbuffer":
			if op.Arc < 0 || op.Arc >= arcLimit {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: arc %d out of range [0,%d)", i, op.Arc, arcLimit)
			}
			ops = append(ops, topo.RemoveBuffer(op.Arc))
		case "repower":
			if m.ref == nil {
				return nil, nil, nil, ErrNoRefEngine
			}
			c, ok := m.ref.D.CellByName(op.Cell)
			if !ok {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: unknown cell %q", i, op.Cell)
			}
			lib, ok := m.ref.Lib.CellByName(op.Lib)
			if !ok {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: unknown library cell %q", i, op.Lib)
			}
			deltas, err := m.ref.EstimateECO(c, lib)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: estimate_eco %s -> %s: %w", i, op.Cell, op.Lib, err)
			}
			for _, dl := range deltas {
				if a := s.tsArcFromRefLocked(dl.ArcID); a >= 0 {
					ops = append(ops, topo.Annotate(a, dl.Delay))
				}
			}
			rzs = append(rzs, resolvedResize{cell: c, lib: lib})
		case "move":
			if m.ref == nil {
				return nil, nil, nil, ErrNoRefEngine
			}
			c, ok := m.ref.D.CellByName(op.Cell)
			if !ok {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: unknown cell %q", i, op.Cell)
			}
			if math.IsNaN(op.X+op.Y) || math.IsInf(op.X+op.Y, 0) {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: non-finite position (%v, %v)", i, op.X, op.Y)
			}
			deltas, err := m.ref.EstimateMove(c, op.X, op.Y)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: estimate_move %s: %w", i, op.Cell, err)
			}
			for _, dl := range deltas {
				if a := s.tsArcFromRefLocked(dl.ArcID); a >= 0 {
					ops = append(ops, topo.Annotate(a, dl.Delay))
				}
			}
			mvs = append(mvs, resolvedMove{cell: c, x: op.X, y: op.Y})
		case "annotate":
			if op.Arc < 0 || op.Arc >= arcLimit {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: arc %d out of range [0,%d)", i, op.Arc, arcLimit)
			}
			if err := checkDelay(op.Rise, op.Fall); err != nil {
				return nil, nil, nil, fmt.Errorf("server: topo op %d: %w", i, err)
			}
			ops = append(ops, topo.Annotate(op.Arc, [2]num.Dist{op.Rise, op.Fall}))
		default:
			return nil, nil, nil, fmt.Errorf("server: topo op %d: unknown op %q", i, op.Op)
		}
	}
	return ops, rzs, mvs, nil
}

// ApplyTopo validates and applies one structural edit batch — buffer
// insertions/removals, repowers, moves, raw annotations — to the session's
// structural working set, re-levelizing and re-propagating only the edited
// cone, and returns the post-edit view. The committed base is untouched until
// Commit. The batch is atomic: on any error the session is exactly as it was.
//
// The first structural batch converts the session: it must hold no
// uncommitted annotation ECOs (ErrPendingAnnotations), and from then on every
// evaluation runs against the session's own seeded engine; a commit to the
// base by any other session conflicts it (ErrStructuralConflict).
func (s *Session) ApplyTopo(req TopoRequest) (*TopoResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if len(req.Ops) == 0 {
		return nil, errors.New("server: empty topo batch")
	}
	s.touch()
	m := s.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := s.rebaseLocked(); err != nil {
		return nil, err
	}
	if s.ts == nil && s.ov.Stats().TouchedArcs > 0 {
		return nil, ErrPendingAnnotations
	}
	ops, rzs, mvs, err := s.resolveTopoLocked(req)
	if err != nil {
		return nil, err
	}
	created := false
	if s.ts == nil {
		ts, err := topo.NewSession(m.be.Engine)
		if err != nil {
			return nil, err
		}
		ts.SetTracer(m.be.Tracer())
		s.ts = ts
		created = true
	}
	res, err := s.ts.Apply(ops)
	if err != nil {
		if created {
			s.ts.Close()
			s.ts = nil
		}
		return nil, err
	}
	s.resizes = append(s.resizes, rzs...)
	s.moves = append(s.moves, mvs...)
	st := s.ts.Stats()
	m.topoEdits.Add(1)
	m.topoInserted.Add(int64(res.Inserted))
	m.topoRemoved.Add(int64(res.Removed))
	m.relevelHist.Observe(float64(st.Relevel.LevelsSpan))
	finalArcs := len(s.ts.Tables().Arcs)
	tr := &TopoResult{
		View:          s.resultLocked(),
		Inserted:      res.Inserted,
		Removed:       res.Removed,
		Annotated:     res.Annotated,
		NewPins:       res.NewPins,
		NewArcs:       [2]int{finalArcs - 2*res.Inserted, finalArcs},
		RelevelLevels: st.Relevel.LevelsSpan,
		RelevelRegion: st.Relevel.Region,
		Edits:         st.Edits,
	}
	if m.debugLog() {
		m.log.Debug("topo applied", "session", s.ID, "edits", st.Edits,
			"inserted", res.Inserted, "removed", res.Removed,
			"annotated", res.Annotated, "relevel_levels", st.Relevel.LevelsSpan,
			"relevel_region", st.Relevel.Region)
	}
	return tr, nil
}

// Result returns the session's current view without applying anything
// (rebasing first if the base moved).
func (s *Session) Result() (*ECOResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.touch()
	s.m.mu.RLock()
	defer s.m.mu.RUnlock()
	if err := s.rebaseLocked(); err != nil {
		return nil, err
	}
	return s.resultLocked(), nil
}

// Slacks returns the session's full nominal endpoint slack view: the
// committed base slacks with the overlay's re-derived endpoints applied on
// top.
func (s *Session) Slacks() ([]float64, error) {
	return s.ScenarioSlacksInto("", nil)
}

// SlacksInto is the allocation-free form of Slacks: the view is written into
// dst (grown only when too small) and the filled slice returned. Callers own
// dst; per-request reuse through a pool keeps the serving steady state free
// of per-call allocations.
func (s *Session) SlacksInto(dst []float64) ([]float64, error) {
	return s.ScenarioSlacksInto("", dst)
}

// ScenarioSlacks returns the session's full endpoint slack view in one
// scenario ("merged" = per-endpoint worst corner): the scenario's committed
// base slacks with the overlay's re-derived endpoints applied on top.
func (s *Session) ScenarioSlacks(name string) ([]float64, error) {
	return s.ScenarioSlacksInto(name, nil)
}

// ScenarioSlacksInto is the allocation-free form of ScenarioSlacks; the
// scenario "" is the nominal lane, which every server has. A session holding
// structural edits reads its working engine, which has nothing to patch.
func (s *Session) ScenarioSlacksInto(name string, dst []float64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.touch()
	m := s.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	lane, err := m.laneLocked(name)
	if err != nil {
		return nil, err
	}
	if err := s.rebaseLocked(); err != nil {
		return nil, err
	}
	if s.ts != nil {
		return laneSlacksInto(m.be.Over(s.ts.Engine()), nil, lane, dst), nil
	}
	return laneSlacksInto(m.be, s.ov, lane, dst), nil
}

// Commit folds the session's recorded arc deltas into the base engine
// (incremental propagation, full slack re-evaluation), replays its resizes
// into the reference netlist, bumps the epoch, and leaves the session open
// and empty against the new base. Commit order across sessions defines the
// sequential-application order; each commit is bit-identical to applying the
// session's deltas on whatever base it lands on.
func (s *Session) Commit() (*ECOResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.touch()
	m := s.m
	t0 := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.ts != nil {
		return s.commitStructuralLocked(t0)
	}
	if s.topoGen != m.topoGen {
		// A structural commit replaced the engine object under this
		// annotation session: re-bind (re-keying recorded deltas through the
		// commits' arc remaps) before folding them in.
		s.rebindLocked(m.composedRemapSince(s.topoGen))
	}
	s.ov.Commit()
	if len(s.resizes) > 0 {
		for _, rz := range s.resizes {
			// Already validated by ApplyECO; a failure here means another
			// session committed a conflicting footprint change — skip the
			// netlist replay, the timing deltas are already in.
			_, _ = m.ref.ResizeCell(rz.cell, rz.lib)
		}
		m.ref.UpdateTimingIncremental()
		s.resizes = s.resizes[:0]
	}
	res := s.finishCommitLocked(t0, map[string]any{"ecos": s.ecoN})
	m.log.Info("session committed", "session", s.ID, "ecos", s.ecoN,
		"epoch", m.epoch, "wns", m.baseWNS, "tns", m.baseTNS,
		"duration", time.Since(t0))
	return res, nil
}

// commitStructuralLocked commits a session's structural working set: the
// manager swaps its base engine for the session's seeded one (the sequel
// bit-identical to a cold compile of the edited netlist), records the arc
// remap so annotation sessions opened against the old structure can re-key,
// replays the session's repowers/moves into the signoff netlist, and bumps
// both the epoch and the structural generation. Caller holds s.mu and
// m.mu.Lock (every in-flight evaluation has drained).
func (s *Session) commitStructuralLocked(t0 time.Time) (*ECOResult, error) {
	m := s.m
	sp := m.be.Tracer().StartArg("structural-commit", "edits", int64(s.ts.Stats().Edits))
	defer sp.End()
	if s.epoch != m.epoch {
		// Someone committed after this session's last edit; the working set
		// was seeded from a base that no longer exists.
		m.topoConflicts.Add(1)
		return nil, ErrStructuralConflict
	}
	d, err := s.ts.Detach()
	if err != nil {
		return nil, err
	}
	old := m.be
	m.be = old.Over(d.Engine)
	if m.ownsBase {
		// An engine installed by an earlier structural commit: nothing else
		// can reference it once every overlay rebases, and Close only stops
		// the scheduler pool — the tensors stay readable for overlays that
		// rebase lazily later.
		old.Close()
	}
	m.ownsBase = true
	m.topoGen++
	m.topoGenA.Store(m.topoGen)
	m.remapHist = append(m.remapHist, remapGen{gen: m.topoGen, remap: d.Remap})
	m.baseRemap = composeArcRemap(m.baseRemap, d.Remap, m.extArcs)
	// Replay repowers and moves into the signoff netlist so later estimate_eco
	// calls price against fresh loads and placement. Inserted buffers have no
	// netlist counterpart: the reference stays the estimation oracle over the
	// original instances (documented limitation).
	if m.ref != nil && (len(s.resizes) > 0 || len(s.moves) > 0) {
		for _, rz := range s.resizes {
			_, _ = m.ref.ResizeCell(rz.cell, rz.lib)
		}
		for _, mv := range s.moves {
			_, _, _ = m.ref.MoveCell(mv.cell, mv.x, mv.y)
		}
		m.ref.UpdateTimingIncremental()
	}
	s.resizes = s.resizes[:0]
	s.moves = s.moves[:0]
	// Re-bind this session's overlay to the engine it just installed. It
	// holds no overlay deltas (structural sessions reject them), so the
	// rebase is a pure re-point.
	s.rebindLocked(nil)
	s.ts = nil // detached: the manager owns the working set now
	res := s.finishCommitLocked(t0, map[string]any{
		"structural": true,
		"inserted":   d.Stats.Inserted,
		"removed":    d.Stats.Removed,
	})
	m.topoCommits.Add(1)
	m.log.Info("structural commit", "session", s.ID,
		"edits", d.Stats.Edits, "inserted", d.Stats.Inserted,
		"removed", d.Stats.Removed, "annotated", d.Stats.Annotated,
		"new_pins", d.Stats.NewPins, "epoch", m.epoch, "topo_gen", m.topoGen,
		"wns", m.baseWNS, "tns", m.baseTNS, "duration", time.Since(t0))
	return res, nil
}

// composeArcRemap folds one structural commit's remap (old-current → new
// ids, nil = identity) into the composed extraction→current remap. n is the
// extraction arc count, the domain of the composed remap.
func composeArcRemap(prev, next []int32, n int) []int32 {
	if next == nil {
		return prev
	}
	if prev == nil {
		prev = make([]int32, n)
		for i := range prev {
			prev[i] = int32(i)
		}
	}
	for i, cur := range prev {
		if cur >= 0 {
			prev[i] = next[cur]
		}
	}
	return prev
}

// Rollback discards the session's uncommitted deltas — annotation and
// structural alike — re-syncing it to the current base. The session stays
// open.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.touch()
	m := s.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	if s.ts != nil {
		s.ts.Close()
		s.ts = nil
	}
	s.ov.Reset()
	if s.topoGen != m.topoGen {
		// The base engine was structurally replaced; re-point the emptied
		// overlay (no deltas survive a reset, so no remap needed).
		s.rebindLocked(nil)
	}
	s.resizes = s.resizes[:0]
	s.moves = s.moves[:0]
	s.epoch = m.epoch
	m.rollbacks.Add(1)
	return nil
}

// Close discards the session and unlinks it from the manager. It reports
// whether this call was the one that closed it.
func (s *Session) Close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	if s.ts != nil {
		s.ts.Close()
		s.ts = nil
	}
	s.ov.Reset()
	return s.m.remove(s.ID)
}

// ECOCount returns how many batches this session has evaluated.
func (s *Session) ECOCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ecoN
}
