// Package server is the serving layer over one signoff-initialized INSTA
// engine: a session manager that hands out copy-on-write ECO sessions
// (overlay views over the frozen propagated base) and the HTTP/JSON front end
// cmd/insta-served mounts on it.
//
// One engine. A daemon serves exactly one lane-strided core engine — one lane
// per scenario — and every session holds one overlay over it, so a what-if is
// propagated once however many corners are analysed. The daemon is
// multi-corner when the engine was built from named scenarios (a -corners
// list, even of one); core.NewEngine's single unnamed lane is not. Everything
// "nominal" (top-level wns/tns/changed/slacks, base reads, gradients, commit
// manifests) is read from its unit-scale lane, which holds bit for bit what a
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/batch"
	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/snap"
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
	// Batch, when non-nil, is served in place of NewManager's engine: the
	// benchmark harness's way in, deleted with internal/batch (DESIGN.md §9).
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
	ref     *refsta.Engine // nil disables resize-form ECOs and pin names
	opt     Options
	corners []core.Scenario // the served scenarios on a multi-corner server, else nil; fixed

	// mu is the base-state lock: RLock for overlay evaluation, Lock for
	// anything that mutates the base engine. eng (a structural commit replaces
	// it), epoch/baseWNS/baseTNS and the per-scenario base rows are guarded
	// by it.
	mu sync.RWMutex
	// eng is the one engine served and nom its unit-scale lane, resolved once.
	// The lane-0 shorthands (Slacks, WNS, Overlay.Slack) are never used here:
	// lane 0 of {ss,tt,ff} is ss.
	eng     *core.Engine
	nom     int
	epoch   uint64
	baseWNS float64 // lane nom
	baseTNS float64
	baseScn []ScenarioView // committed per-scenario + merged rows; nil on a single-corner server

	// Structural-ECO state, guarded by mu. topoGen bumps on every structural
	// commit (the base engine objects are replaced, not just re-annotated);
	// ownsBase marks a base engine installed by a structural commit (closed
	// on the next swap; the boot engine stays caller-owned).
	topoGen  uint64
	ownsBase bool

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
	// held: what Epoch and TopoGen return. The flight recorder stamps both
	// onto every completed request; reading the mu-guarded fields there would
	// make request completion block behind long structural commits.
	epochA   atomic.Uint64
	topoGenA atomic.Uint64

	// live is the live-session gauge, maintained at the table mutation
	// points (Create/remove) so readers — /healthz, /metrics, the flight
	// recorder path — never take smu just to count sessions.
	live obs.Gauge

	slackText slackText // the session reads' endpoint slack text, per base lane

	log *slog.Logger
}

// NewManager serves one initialized engine, e — one lane per scenario. The
// manager runs the one-time full evaluation here; the base is frozen
// afterwards. ref, when non-nil, provides estimate_eco resolution for
// resize-form ECOs and design names for reports. With opt.Batch set, opt.Batch
// is served instead, and e is evaluated once and otherwise left alone.
//
// NewManager panics when the served engine has no unit-scale scenario:
// answering nominal queries from some derated lane would be silently wrong.
func NewManager(e *core.Engine, ref *refsta.Engine, opt Options) *Manager {
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = 64
	}
	if opt.TTL <= 0 {
		opt.TTL = 5 * time.Minute
	}
	if opt.Batch != nil {
		e.Run()
		e = opt.Batch.Engine
	}
	nom := core.UnitLane(e.Scenarios())
	if nom < 0 {
		panic("server: the served engine has no unit-scale (1/1/1) scenario to read the nominal view from; add one to the scenario list (e.g. tt)")
	}
	e.Run()
	if e.HoldEnabled() {
		e.RefreshHoldSlacks()
	}
	m := &Manager{
		ref:         ref,
		eng:         e,
		nom:         nom,
		opt:         opt,
		sessions:    make(map[string]*Session),
		relevelHist: obs.NewHistogram(relevelBounds),
		log:         slog.Default(),
	}
	m.slackText.lanes = make([]atomic.Pointer[laneText], e.Lanes()+1)
	m.baseWNS, m.baseTNS = core.WNS(e.LaneSlacks(nom)), core.TNS(e.LaneSlacks(nom))
	if e.Scenarios()[0].Name != "" {
		m.corners = e.Scenarios()
		m.baseScn = scenarioBaseViews(e)
	}
	return m
}

// scenarioBaseViews snapshots the engine's committed figures: one row per
// scenario plus a trailing "merged" row (per-endpoint worst corner).
func scenarioBaseViews(e *core.Engine) []ScenarioView {
	row := func(name string, sl []float64) ScenarioView {
		return ScenarioView{Name: name, WNS: core.WNS(sl), TNS: core.TNS(sl), Violations: core.Violations(sl)}
	}
	out := make([]ScenarioView, 0, e.Lanes()+1)
	for s, scn := range e.Scenarios() {
		out = append(out, row(scn.Name, e.LaneSlacks(s)))
	}
	return append(out, row("merged", e.MergedSlacksInto(nil)))
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
func (m *Manager) Engine() *core.Engine {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.eng
}

// Ref returns the reference engine, or nil.
func (m *Manager) Ref() *refsta.Engine { return m.ref }

// Scenarios returns the served scenarios in lane order, or nil on a
// single-corner server. Callers must not mutate the slice.
func (m *Manager) Scenarios() []core.Scenario { return m.corners }

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
	path, size, err = c.Store(key, m.eng.ExportState(), m.corners)
	return path, size, key, err
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
	for s, scn := range m.corners {
		if scn.Name == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownScenario, name)
}

// laneSlacksInto copies one lane of eng's endpoint slacks (or the merged
// view) into dst, growing it only when too small, and patches in the
// endpoints ov re-derived — the one body behind every full-vector read, base
// or session. ov may be nil.
func laneSlacksInto(eng *core.Engine, ov *core.Overlay, lane int, dst []float64) []float64 {
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
	dst = append(dst[:0], eng.LaneSlacks(lane)...)
	for _, ep := range patch {
		dst[ep] = ov.LaneSlack(lane, ep)
	}
	return dst
}

// BaseScenarioSlacks returns the committed endpoint slacks of one scenario,
// or the per-endpoint worst across scenarios for "merged".
func (m *Manager) BaseScenarioSlacks(name string) ([]float64, error) {
	v, err := m.BaseViewInto(name, nil)
	return v.Slacks, err
}

// BaseView is one consistent read of the committed base: every field belongs
// to the same epoch.
type BaseView struct {
	Slacks   []float64      // the requested lane's endpoint slacks
	WNS, TNS float64        // of Slacks
	Epoch    uint64         // the epoch all of the above were committed at
	Corners  []ScenarioView // committed per-scenario rows; nil when single-corner
	Pins     []int32        // endpoint index -> pin id, of the engine read; not to be modified
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
		Slacks:  laneSlacksInto(m.eng, nil, lane, dst),
		WNS:     m.baseWNS,
		TNS:     m.baseTNS,
		Epoch:   m.epoch,
		Corners: append([]ScenarioView(nil), m.baseScn...),
		Pins:    m.eng.Endpoints(),
	}
	if lane != m.nom {
		v.WNS, v.TNS = core.WNS(v.Slacks), core.TNS(v.Slacks)
	}
	return v, nil
}

// Epoch returns the current base epoch (bumped on every commit), from its
// lock-free mirror: callers stamp it on responses and telemetry, where taking
// the base lock would queue them behind a long commit.
func (m *Manager) Epoch() uint64 { return m.epochA.Load() }

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

// BaseSlacks returns a copy of the committed nominal endpoint slacks.
func (m *Manager) BaseSlacks() []float64 {
	v, _ := m.BaseViewInto("", nil) // the nominal lane always resolves
	return v.Slacks
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

// MaxSessions returns the admission cap Create enforces.
func (m *Manager) MaxSessions() int { return m.opt.MaxSessions }

// Create opens a new session against the current base, or fails with
// ErrTooManySessions at the admission cap.
func (m *Manager) Create() (*Session, error) {
	// The overlay must bind to the engine of one consistent epoch: hold the
	// read lock across the reads (a structural commit swaps m.eng).
	m.mu.RLock()
	epoch, topoGen, eng := m.epoch, m.topoGen, m.eng
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
		ov:      core.NewOverlay(eng),
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
		m.eng.Close()
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
// commit result, the scenario rows with deltas against the figures they
// replace. The top-level deltas stay zero, as an annotation commit has always
// answered; a structural commit fills them in. Caller holds m.mu.Lock.
func (m *Manager) advanceLocked() *ECOResult {
	prevScn := m.baseScn
	m.epoch++
	m.epochA.Store(m.epoch)
	m.baseWNS, m.baseTNS = core.WNS(m.eng.LaneSlacks(m.nom)), core.TNS(m.eng.LaneSlacks(m.nom))
	res := &ECOResult{
		WNS:       m.baseWNS,
		TNS:       m.baseTNS,
		Epoch:     m.epoch,
		Committed: true,
	}
	if prevScn != nil {
		m.baseScn = scenarioBaseViews(m.eng)
		res.Scenarios = make([]ScenarioView, len(m.baseScn))
		for i, v := range m.baseScn {
			v.DeltaWNS = v.WNS - prevScn[i].WNS
			v.DeltaTNS = v.TNS - prevScn[i].TNS
			res.Scenarios[i] = v
		}
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
	m.eng.BackwardLane(m.nom, nil)
	stages := m.eng.StageGradients()
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
