package server

// Sessions: the copy-on-write what-if view a client holds — annotation ECOs,
// reads, rebase across other sessions' commits, commit and rollback.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"insta/internal/batch"
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
	tsView  *batch.Engine    // scenario view of ts's working engine (workingLocked)
	resizes []resolvedResize // netlist changes to replay on commit
	moves   []resolvedMove
	closed  bool
	ecoN    int
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// rebaseLocked re-derives the overlay against the current base if a commit
// happened since this session last evaluated. Caller holds s.mu and at least
// m.mu.RLock.
//
// Two rebase shapes exist. An annotation commit keeps the engine object, so
// the overlay re-derives in place (Rebase). A structural commit replaced it,
// so the overlay re-binds to the new engine, its recorded deltas on the arc
// ids they were recorded on (RebaseStructural) — bit-identical to having
// recorded the deltas against the new base from the start. A session that
// itself holds structural edits cannot rebase over either kind of commit: its
// working engine was seeded from a base that no longer exists, so it
// conflicts instead.
func (s *Session) rebaseLocked() error {
	m := s.m
	if s.topoGen == m.topoGen && s.epoch == m.epoch {
		return nil
	}
	if s.ts != nil {
		m.topoConflicts.Add(1)
		return ErrStructuralConflict
	}
	if s.topoGen != m.topoGen {
		s.rebindLocked()
	} else {
		s.ov.Rebase()
	}
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

// figures is what a view's per-lane WNS/TNS are read from: a session's
// overlay, or the working engine of one holding structural edits.
type figures interface {
	WNS(s int) float64
	TNS(s int) float64
}

// scenarioRowsLocked prices src in every corner: one row per scenario with
// ΔWNS/ΔTNS against that scenario's committed base, plus the merged row,
// whose figures the caller derived. Caller holds at least m.mu.RLock.
func (m *Manager) scenarioRowsLocked(src figures, mergedWNS, mergedTNS float64) []ScenarioView {
	out := make([]ScenarioView, len(m.baseScn))
	for i, b := range m.baseScn {
		wns, tns := mergedWNS, mergedTNS
		if b.Name != "merged" {
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

// workingLocked returns the scenario view of the structural working engine,
// rebuilt only when an edit replaced that engine. Caller holds s.mu, with
// s.ts non-nil.
func (s *Session) workingLocked() *batch.Engine {
	if c := s.ts.Engine(); s.tsView == nil || s.tsView.Engine != c {
		s.tsView = s.m.be.Over(c)
	}
	return s.tsView
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
	var mergedWNS, mergedTNS float64
	if s.ts != nil {
		eng, st := s.workingLocked(), s.ts.Stats()
		src = eng
		if m.baseScn != nil {
			merged := eng.MergedSlacksInto(nil)
			mergedWNS, mergedTNS = core.WNS(merged), core.TNS(merged)
		}
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
		if m.baseScn != nil {
			mergedWNS, mergedTNS = s.ov.MergedWNS(), s.ov.MergedTNS()
		}
		res.TouchedArcs = st.TouchedArcs
		res.OverlayPins = st.OverlayPins
		changed := s.ov.ChangedEndpointsView()
		res.Changed = make([]EndpointSlack, 0, len(changed))
		for _, ep := range changed {
			res.Changed = append(res.Changed, m.endpointSlackLocked(int(ep), s.ov.Slack(m.nom, ep)))
		}
	}
	res.WNS, res.TNS = src.WNS(m.nom), src.TNS(m.nom)
	res.DeltaWNS = res.WNS - m.baseWNS
	res.DeltaTNS = res.TNS - m.baseTNS
	if m.baseScn != nil {
		res.Scenarios = m.scenarioRowsLocked(src, mergedWNS, mergedTNS)
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

// evalLocked is the protocol every session evaluation follows: take the
// session's mutex, refuse a closed session, mark it used, take the base read
// lock and rebase the overlay onto the current base. fn runs with both locks
// held.
func (s *Session) evalLocked(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.touch()
	s.m.mu.RLock()
	defer s.m.mu.RUnlock()
	if err := s.rebaseLocked(); err != nil {
		return err
	}
	return fn()
}

// resolveResizeLocked prices swapping the named instance to the named library
// cell: the netlist change to replay on commit, and estimate_eco's arc
// deltas. Caller holds at least m.mu.RLock.
func (m *Manager) resolveResizeLocked(cell, lib string) (resolvedResize, []refsta.ArcDelta, error) {
	if m.ref == nil {
		return resolvedResize{}, nil, ErrNoRefEngine
	}
	c, ok := m.ref.D.CellByName(cell)
	if !ok {
		return resolvedResize{}, nil, fmt.Errorf("unknown cell %q", cell)
	}
	l, ok := m.ref.Lib.CellByName(lib)
	if !ok {
		return resolvedResize{}, nil, fmt.Errorf("unknown library cell %q", lib)
	}
	deltas, err := m.ref.EstimateECO(c, l)
	if err != nil {
		return resolvedResize{}, nil, fmt.Errorf("estimate_eco %s -> %s: %w", cell, lib, err)
	}
	return resolvedResize{cell: c, lib: l}, deltas, nil
}

// applyLocked applies one validated batch — estimate_eco deltas and raw arc
// ECOs — and re-propagates the affected cones: through the overlay, or, on a
// session that holds structural edits, folded into its working set so the one
// cone re-prop prices the batch against the edited topology. Caller holds s.mu
// and at least m.mu.RLock.
func (s *Session) applyLocked(ref []refsta.ArcDelta, arcs []ArcECO) error {
	if s.ts != nil {
		deltas := make([]topo.Delta, 0, len(ref)+len(arcs))
		for _, dl := range ref {
			deltas = append(deltas, topo.Delta{Arc: dl.ArcID, Delay: dl.Delay})
		}
		for _, a := range arcs {
			deltas = append(deltas, topo.Delta{Arc: a.Arc, Delay: [2]num.Dist{a.Rise, a.Fall}})
		}
		if err := s.ts.Annotate(deltas); err != nil {
			return err
		}
	} else {
		for _, dl := range ref {
			s.applyArcLocked(dl.ArcID, dl.Delay[0], dl.Delay[1])
		}
		for _, a := range arcs {
			s.applyArcLocked(a.Arc, a.Rise, a.Fall)
		}
		s.ov.Propagate()
	}
	s.ecoN++
	s.m.ecoTotal.Add(1)
	return nil
}

// ApplyECO validates and applies one what-if batch to the session's overlay,
// re-propagates the affected cones, and returns the session's new view
// (ΔWNS/ΔTNS plus every endpoint whose slack the overlay re-derived). The
// base engine is untouched. On a validation error nothing is applied.
func (s *Session) ApplyECO(req ECORequest) (res *ECOResult, err error) {
	err = s.evalLocked(func() error {
		m := s.m
		// Resolve and validate the whole batch before applying any of it.
		var ref []refsta.ArcDelta
		rzs := make([]resolvedResize, 0, len(req.Resizes))
		for _, rz := range req.Resizes {
			r, deltas, err := m.resolveResizeLocked(rz.Cell, rz.Lib)
			if errors.Is(err, ErrNoRefEngine) {
				return err
			} else if err != nil {
				return fmt.Errorf("server: %w", err)
			}
			rzs, ref = append(rzs, r), append(ref, deltas...)
		}
		arcLimit := s.arcLimitLocked()
		for _, a := range req.Arcs {
			if a.Arc < 0 || int(a.Arc) >= arcLimit {
				return fmt.Errorf("server: arc %d out of range [0,%d)", a.Arc, arcLimit)
			}
			if err := checkDelay(a.Rise, a.Fall); err != nil {
				return fmt.Errorf("server: arc %d: %w", a.Arc, err)
			}
		}
		if err := s.applyLocked(ref, req.Arcs); err != nil {
			return err
		}
		// The batch is in: only now record its resizes for the commit's
		// netlist replay, so a rejected batch leaves nothing behind.
		s.resizes = append(s.resizes, rzs...)
		if m.debugLog() {
			m.log.Debug("eco applied", "session", s.ID, "eco", s.ecoN,
				"resizes", len(req.Resizes), "arcs", len(req.Arcs))
		}
		res = s.resultLocked()
		return nil
	})
	return res, err
}

// ApplyDeltas is the in-process fast path ApplyECO's arc form reduces to:
// annotate pre-computed estimate_eco deltas and re-propagate. The sizing
// driver uses it to preview candidates without JSON round-trips.
func (s *Session) ApplyDeltas(deltas []refsta.ArcDelta) (res *ECOResult, err error) {
	err = s.evalLocked(func() error {
		if err := s.applyLocked(deltas, nil); err != nil {
			return err
		}
		res = s.resultLocked()
		return nil
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
		if s.ts != nil {
			dst = laneSlacksInto(s.workingLocked(), nil, lane, dst)
		} else {
			dst = laneSlacksInto(m.be, s.ov, lane, dst)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return dst, lane, nil
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
		// annotation session: re-bind before folding its deltas in.
		s.rebindLocked()
	}
	s.ov.Commit()
	s.replayNetlistLocked()
	res := s.finishCommitLocked(t0, map[string]any{"ecos": s.ecoN})
	m.log.Info("session committed", "session", s.ID, "ecos", s.ecoN,
		"epoch", m.epoch, "wns", m.baseWNS, "tns", m.baseTNS,
		"duration", time.Since(t0))
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

// discardLocked drops everything the session holds uncommitted: its
// structural working set, its overlay deltas and its queued netlist changes.
// Caller holds s.mu.
func (s *Session) discardLocked() {
	if s.ts != nil {
		s.ts.Close()
		s.ts, s.tsView = nil, nil
	}
	s.ov.Reset()
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
	if s.topoGen != m.topoGen {
		// The base engine was structurally replaced; re-point the emptied
		// overlay.
		s.rebindLocked()
	}
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
	s.discardLocked()
	s.ov.Release() // its rows and indices go to the next session over this engine
	return s.m.remove(s.ID)
}

// ECOCount returns how many batches this session has evaluated.
func (s *Session) ECOCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ecoN
}
