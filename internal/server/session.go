package server

// Sessions: the copy-on-write what-if view a client holds — annotation ECOs,
// reads, rebase across other sessions' commits, commit and rollback.

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/core"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/topo"
)

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

// edit is one resolved request of any kind: the ops to apply, every delay an
// Annotate, plus the netlist changes to replay on commit. A session resolves
// each request into its one edit, whose storage passes to the next session
// when it closes.
type edit struct {
	ops []topo.Op
	rzs []resolvedResize
	mvs []resolvedMove
}

// reset empties e for the next request, keeping its storage.
func (e *edit) reset() *edit {
	e.ops, e.rzs, e.mvs = e.ops[:0], e.rzs[:0], e.mvs[:0]
	return e
}

// annotate adds estimate output as Annotate ops.
func (e *edit) annotate(deltas []refsta.ArcDelta) {
	for _, dl := range deltas {
		e.ops = append(e.ops, topo.Annotate(dl.ArcID, dl.Delay))
	}
}

// Session is one copy-on-write what-if view. All methods are safe for
// concurrent use; calls on one session serialize on its mutex, while calls
// on different sessions share the base under the manager's read lock.
type Session struct {
	m  *Manager
	ID string

	lastUsed atomic.Int64 // unix nanos of the last touch

	mu sync.Mutex
	// ov is the session's one copy-on-write view, every lane of the engine it
	// sits over: the served base, or work once the session holds structural
	// edits. Every annotation ECO goes to it.
	ov      *core.Overlay
	epoch   uint64
	work    *core.Engine     // the working engine, once the session holds structural edits
	wst     topo.Stats       // what work's structural batches did, plus the arcs folded into it
	ed      edit             // the request being resolved
	resizes []resolvedResize // netlist changes to replay on commit
	moves   []resolvedMove
	closed  bool
	ecoN    int
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// rebaseLocked re-derives the overlay, its deltas kept on their arc ids,
// against the current engine if a commit of either kind bumped the epoch
// since this session last evaluated. A session holding structural edits
// conflicts instead: its working engine was seeded from a base that no longer
// exists. Caller holds s.mu and at least m.mu.RLock.
func (s *Session) rebaseLocked() error {
	m := s.m
	if s.epoch == m.epoch {
		return nil
	}
	if s.work != nil {
		m.topoConflicts.Add(1)
		return ErrStructuralConflict
	}
	s.ov.Rebase(m.eng)
	s.ov.Propagate()
	s.epoch = m.epoch
	return nil
}

// jsonSlack clamps ±Inf (untimed endpoints) to representable JSON numbers.
func jsonSlack(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.Copysign(1e30, v)
	}
	return v
}

// scenarioRowsLocked is the per-corner part of a result: one row per
// scenario, from lane i's wns[i] and tns[i], and the merged row, each with
// ΔWNS/ΔTNS against that scenario's committed base. Caller holds at least
// m.mu.RLock.
func (m *Manager) scenarioRowsLocked(wns, tns []float64, mergedWNS, mergedTNS float64) []ScenarioView {
	out := make([]ScenarioView, len(m.baseScn))
	for i, b := range m.baseScn {
		w, t := mergedWNS, mergedTNS
		if b.Name != "merged" {
			w, t = wns[i], tns[i]
		}
		out[i] = ScenarioView{
			Name:     b.Name,
			WNS:      w,
			TNS:      t,
			DeltaWNS: w - b.WNS,
			DeltaTNS: t - b.TNS,
		}
	}
	return out
}

// resultLocked builds the session's current view from its overlay: the
// nominal lane's figures and changed endpoints, and on a multi-corner server
// the per-scenario rows, all from one scan of the endpoints (Summarize).
//
// A session holding structural edits reads the overlay over its working
// engine. Endpoint indices are stable across structural edits (startpoints
// and endpoints can never be spliced), so its Changed is the per-endpoint
// diff against the committed base. Its TouchedArcs adds to the overlay's arcs
// those of its structural batches — two per buffer inserted or removed, one
// per arc re-annotated — and the overlay arcs a structural batch folded into
// the working engine, so no arc stops counting when a batch follows the ECO
// that touched it. Its OverlayPins is the pin count of its last structural
// batch's re-levelized region, the structural analogue of the overlay's
// recompute footprint; an ECO's cone is not added. Neither moves when a
// refused batch folds the overlay. Caller holds s.mu and at least
// m.mu.RLock.
func (s *Session) resultLocked() *ECOResult {
	m, ov := s.m, s.ov
	st := ov.Stats()
	res := &ECOResult{Epoch: s.epoch, TouchedArcs: st.TouchedArcs, OverlayPins: st.OverlayPins}
	if s.work != nil {
		w := s.wst
		res.TouchedArcs += w.Inserted*2 + w.Removed*2 + w.Annotated
		res.OverlayPins = w.Relevel.Region
		for i, b := range m.eng.LaneSlacks(m.nom) {
			if sl := ov.LaneSlack(m.nom, int32(i)); sl != b {
				res.Changed = append(res.Changed, m.endpointSlackLocked(i, sl))
			}
		}
	} else {
		changed := ov.ChangedEndpointsView()
		res.Changed = make([]EndpointSlack, 0, len(changed))
		for _, ep := range changed {
			res.Changed = append(res.Changed, m.endpointSlackLocked(int(ep), ov.LaneSlack(m.nom, ep)))
		}
	}
	var figs [16]float64 // up to eight lanes' WNS and TNS, on the stack
	wns, tns := figs[:8], figs[8:]
	if S := ov.Base().Lanes(); S > 8 {
		wns, tns = make([]float64, S), make([]float64, S)
	}
	mergedWNS, mergedTNS := ov.Summarize(wns, tns)
	res.WNS, res.TNS = wns[m.nom], tns[m.nom]
	res.DeltaWNS = res.WNS - m.baseWNS
	res.DeltaTNS = res.TNS - m.baseTNS
	if m.baseScn != nil {
		res.Scenarios = m.scenarioRowsLocked(wns, tns, mergedWNS, mergedTNS)
	}
	return res
}

// endpointSlackLocked reports endpoint ep at nominal slack next to its
// committed nominal slack. Caller holds at least m.mu.RLock.
func (m *Manager) endpointSlackLocked(ep int, slack float64) EndpointSlack {
	es := EndpointSlack{
		Endpoint: ep,
		Slack:    jsonSlack(slack),
		Base:     jsonSlack(m.eng.LaneSlacks(m.nom)[ep]),
	}
	if m.ref != nil {
		es.Pin = m.ref.D.Pins[m.eng.Endpoints()[ep]].Name
	}
	return es
}

// resolveArcLocked is the one validator of a caller-given arc delay — a raw
// ECO arc, an ApplyDeltas delta or a topo annotate — and adds it to e. The arc
// must exist, and the delay must propagate: one NaN would spread through every
// queue downstream and, on commit, into the base. Caller holds s.mu and at
// least m.mu.RLock.
func (s *Session) resolveArcLocked(e *edit, arc int32, d [2]num.Dist) error {
	if err := s.checkArcLocked(arc); err != nil {
		return err
	}
	for _, x := range d {
		if math.IsNaN(x.Mean) || math.IsInf(x.Mean, 0) {
			return fmt.Errorf("arc %d: non-finite delay mean %v", arc, x.Mean)
		}
		if math.IsNaN(x.Std) || math.IsInf(x.Std, 0) || x.Std < 0 {
			return fmt.Errorf("arc %d: delay sigma %v is negative or non-finite", arc, x.Std)
		}
	}
	e.ops = append(e.ops, topo.Annotate(arc, d))
	return nil
}

// checkArcLocked refuses an arc id the engine under the session's overlay —
// the served one, or its working engine — does not have. Caller holds s.mu
// and at least m.mu.RLock.
func (s *Session) checkArcLocked(arc int32) error {
	if lim := s.ov.Base().NumArcs(); arc < 0 || int(arc) >= lim {
		return fmt.Errorf("arc %d out of range [0,%d)", arc, lim)
	}
	return nil
}

// evalLocked is the protocol every session evaluation follows: take the
// session's mutex, refuse a closed session, mark it used, take the base read
// lock and rebase the overlay onto the current base. fn runs with both locks
// held.
//
// A panic in the rebase or in fn — a kernel's too, which the scheduler raises
// here — poisons the session, not the daemon: it is closed, unlinked and
// logged, and the call answers ErrSessionPoisoned. Its state is unknown, so
// none of it goes back to the engine's pools: the overlay is Reset, never
// Released, and keeps its shadow rows, index and any merge scratch its wave
// had on loan.
func (s *Session) evalLocked(fn func() error) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.touch()
	s.m.mu.RLock()
	defer s.m.mu.RUnlock()
	defer func() {
		if p := recover(); p != nil {
			s.closed = true
			s.discardLocked()
			s.m.remove(s)
			s.m.log.Error("session poisoned", "session", s.ID, "panic", p, "stack", string(debug.Stack()))
			err = ErrSessionPoisoned
		}
	}()
	if err := s.rebaseLocked(); err != nil {
		return err
	}
	return fn()
}

// resolveResizeLocked resolves a resize ECO or a repower — the named instance
// swapped to the named library cell — into e: estimate_eco's arc deltas and
// the netlist change to replay on commit. Caller holds at least m.mu.RLock.
func (m *Manager) resolveResizeLocked(e *edit, cell, lib string) error {
	if m.ref == nil {
		return ErrNoRefEngine
	}
	c, ok := m.ref.D.CellByName(cell)
	if !ok {
		return fmt.Errorf("unknown cell %q", cell)
	}
	l, ok := m.ref.Lib.CellByName(lib)
	if !ok {
		return fmt.Errorf("unknown library cell %q", lib)
	}
	deltas, err := m.ref.EstimateECO(c, l)
	if err != nil {
		return fmt.Errorf("estimate_eco %s -> %s: %w", cell, lib, err)
	}
	e.annotate(deltas)
	e.rzs = append(e.rzs, resolvedResize{cell: c, lib: l})
	return nil
}

// applyLocked is the one writer of a session: it applies one resolved batch
// and re-propagates the cones it touched. An annotation batch (structural
// false) goes to the overlay, over whichever engine it sits. A structural
// batch is the one caller of topo.Edit, and every one takes the same path:
// the overlay is committed into the working engine, which is private, that
// engine is edited in place, and the overlay is rebased onto it. The
// session's first creates the working engine as a fork of the served base —
// unless the overlay, then over the base, holds annotations the fork would
// drop (ErrPendingAnnotations) — so its overlay commit is a no-op; it is
// validated against the base first (topo.Apply only reads the state), so a
// batch topo refuses costs no fork. A refused batch applies nothing: a fold
// it made is the overlay's own preview, committed, so the session's view is
// as it was, and a first batch the patch refuses closes the fork. Caller
// holds s.mu and at least m.mu.RLock.
func (s *Session) applyLocked(e *edit, structural bool) (res *topo.Result, err error) {
	switch {
	case !structural:
		for _, op := range e.ops {
			s.ov.SetArcDelay(op.Arc, 0, op.Delay[0])
			s.ov.SetArcDelay(op.Arc, 1, op.Delay[1])
		}
		s.ov.Propagate()
	case s.work == nil && s.ov.Stats().TouchedArcs > 0:
		return nil, ErrPendingAnnotations
	default:
		forked := s.work == nil
		if forked {
			if _, err := topo.Apply(s.m.eng.ExportState(), e.ops); err != nil {
				return nil, err
			}
			s.work = s.m.eng.Fork()
		}
		s.wst.Annotated += s.ov.Stats().TouchedArcs
		s.ov.Commit()
		if res, err = topo.Edit(s.work, e.ops); err != nil {
			if forked {
				s.work.Close()
				s.work = nil
			}
			return nil, err
		}
		s.wst.Add(res)
		s.ov.Rebase(s.work)
	}
	s.resizes = append(s.resizes, e.rzs...)
	s.moves = append(s.moves, e.mvs...)
	return res, nil
}

// ecoLocked is what ApplyECO and ApplyDeltas end in: apply the annotation
// batch, count it, return the view. Caller holds s.mu and at least m.mu.RLock.
func (s *Session) ecoLocked(e *edit) (*ECOResult, error) {
	if _, err := s.applyLocked(e, false); err != nil {
		return nil, err
	}
	s.ecoN++
	s.m.ecoTotal.Add(1)
	if s.m.debugLog() {
		s.m.log.Debug("eco applied", "session", s.ID, "eco", s.ecoN,
			"resizes", len(e.rzs), "ops", len(e.ops))
	}
	return s.resultLocked(), nil
}

// ApplyECO validates and applies one what-if batch to the session's overlay,
// re-propagates the affected cones, and returns the session's new view
// (ΔWNS/ΔTNS plus every endpoint whose slack the overlay re-derived). The
// base engine is untouched. An empty batch is refused before any lock is
// taken; on a validation error nothing is applied.
func (s *Session) ApplyECO(req ECORequest) (res *ECOResult, err error) {
	if len(req.Resizes) == 0 && len(req.Arcs) == 0 {
		return nil, errors.New("server: empty ECO batch")
	}
	err = s.evalLocked(func() error {
		e := s.ed.reset()
		for _, rz := range req.Resizes {
			if err := s.m.resolveResizeLocked(e, rz.Cell, rz.Lib); errors.Is(err, ErrNoRefEngine) {
				return err
			} else if err != nil {
				return fmt.Errorf("server: %w", err)
			}
		}
		for _, a := range req.Arcs {
			if err := s.resolveArcLocked(e, a.Arc, [2]num.Dist{a.Rise, a.Fall}); err != nil {
				return fmt.Errorf("server: %w", err)
			}
		}
		res, err = s.ecoLocked(e)
		return err
	})
	return res, err
}

// ApplyDeltas is the in-process fast path ApplyECO's arc form reduces to:
// annotate pre-computed estimate_eco deltas and re-propagate. The sizing
// driver uses it to preview candidates without JSON round-trips.
func (s *Session) ApplyDeltas(deltas []refsta.ArcDelta) (res *ECOResult, err error) {
	err = s.evalLocked(func() error {
		e := s.ed.reset()
		for _, dl := range deltas {
			if err := s.resolveArcLocked(e, dl.ArcID, dl.Delay); err != nil {
				return fmt.Errorf("server: %w", err)
			}
		}
		res, err = s.ecoLocked(e)
		return err
	})
	return res, err
}

// Result returns the session's current view without applying anything
// (rebasing first if the base moved).
func (s *Session) Result() (res *ECOResult, err error) {
	err = s.evalLocked(func() error {
		res = s.resultLocked()
		return nil
	})
	return res, err
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

// ScenarioSlacksInto returns the session's full endpoint slack view in one
// scenario ("merged" = per-endpoint worst corner) — the scenario's committed
// base slacks with the overlay's re-derived endpoints applied on top — written
// into dst (grown only when too small); the scenario "" is the nominal lane,
// which every server has. A session holding structural edits reads its
// working engine with its overlay on top.
func (s *Session) ScenarioSlacksInto(name string, dst []float64) ([]float64, error) {
	dst, _, err := s.scenarioSlacksInto(name, dst)
	return dst, err
}

// scenarioSlacksInto is ScenarioSlacksInto, also reporting the lane the name
// resolved to.
func (s *Session) scenarioSlacksInto(name string, dst []float64) (_ []float64, lane int, err error) {
	err = s.evalLocked(func() error {
		m := s.m
		if lane, err = m.laneLocked(name); err != nil {
			return err
		}
		dst = laneSlacksInto(s.ov.Base(), s.ov, lane, dst)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return dst, lane, nil
}

// Commit folds the session's recorded arc deltas into the engine under its
// overlay (that engine adopts the session's preview): the served base, or a
// structural session's working engine, which then replaces the base. It
// replays the session's resizes into the reference netlist, bumps the epoch,
// and leaves the session open and empty against the new base. Commit order
// across sessions defines the sequential-application order; each commit is
// bit-identical to applying the session's deltas on whatever base it lands
// on.
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
	// A preview older than the last commit is redone on the current base; a
	// structural working set seeded from an older base conflicts.
	if err := s.rebaseLocked(); err != nil {
		return nil, err
	}
	s.ov.Commit()
	if s.work != nil {
		return s.commitStructuralLocked(t0)
	}
	s.replayNetlistLocked()
	res := s.finishCommitLocked(t0, map[string]any{"ecos": s.ecoN})
	if m.debugLog() {
		m.log.Debug("session committed", "session", s.ID, "ecos", s.ecoN,
			"epoch", m.epoch, "wns", m.baseWNS, "tns", m.baseTNS,
			"duration", time.Since(t0))
	}
	return res, nil
}

// replayNetlistLocked replays the session's resizes and moves into the
// signoff netlist, so later estimate_eco calls price against fresh loads and
// placement. Each was validated when it was applied; one that fails now lost
// to a conflicting footprint change another session committed, and is
// skipped — its timing deltas are already in. Inserted buffers have no
// netlist counterpart: the reference stays the estimation oracle over the
// original instances (documented limitation). Caller holds s.mu and
// m.mu.Lock.
func (s *Session) replayNetlistLocked() {
	if ref := s.m.ref; ref != nil && len(s.resizes)+len(s.moves) > 0 {
		for _, rz := range s.resizes {
			_, _ = ref.ResizeCell(rz.cell, rz.lib)
		}
		for _, mv := range s.moves {
			_, _, _ = ref.MoveCell(mv.cell, mv.x, mv.y)
		}
		ref.UpdateTimingIncremental()
	}
	s.resizes, s.moves = s.resizes[:0], s.moves[:0]
}

// discardLocked drops everything the session holds uncommitted: its overlay
// deltas, its structural working engine and its queued netlist changes. An
// overlay that sat over the working engine still does, until the caller
// rebases it. Caller holds s.mu.
func (s *Session) discardLocked() {
	s.ov.Reset()
	if s.work != nil {
		s.work.Close()
		s.work, s.wst = nil, topo.Stats{}
	}
	s.resizes, s.moves = s.resizes[:0], s.moves[:0]
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
		Pins:      m.eng.NumPins(),
		Arcs:      m.eng.NumArcs(),
		Endpoints: len(m.eng.Endpoints()),
		Levels:    m.eng.NumLevels(),
		TopK:      m.eng.TopK(),
		Workers:   m.eng.Pool().Workers(),
		WNSBefore: prevWNS,
		TNSBefore: prevTNS,
		WNSAfter:  res.WNS,
		TNSAfter:  res.TNS,
		Extra:     extra,
	}
	for _, scn := range m.corners {
		man.Scenarios = append(man.Scenarios, scn.Name)
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
	s.discardLocked()
	s.ov.Rebase(m.eng) // empty: this only re-points it at the current base
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
	m := s.m
	m.mu.RLock()
	s.discardLocked()
	// A structural session's overlay sat over the working engine just closed:
	// re-point it at the served base, whose pool the next session draws from.
	s.ov.Rebase(m.eng)
	s.ov.Release() // its rows and indices go to the next session over this engine
	m.mu.RUnlock()
	return m.remove(s)
}

// ECOCount returns how many batches this session has evaluated.
func (s *Session) ECOCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ecoN
}
