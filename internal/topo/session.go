package topo

// Structural ECO sessions: a working clone of the extraction tables plus one
// fully evaluated working engine (every lane of it, when the base carries
// scenarios), rebuilt incrementally per edit batch. The session is the
// preview/commit/rollback unit the serving layer wraps:
//
//	preview  = Apply/Annotate against the working set; the base engine
//	           stays frozen and shared with concurrent annotation sessions
//	commit   = Detach hands the working set to the owner, which swaps it in
//	           as the new base
//	rollback = Reset closes the working engine and points the session back
//	           at the base
//
// Each Apply recompiles the edited tables with core.CompileIncrementalPatched
// (the previous state's slabs patched at the rows the batch touched, localized
// re-levelization; batches that bypass a buffer move arcs between existing
// pins and fall back to core.CompileIncremental, which rebuilds the slabs) and
// stands up the next working engine with core.Engine.Reseed (cone-limited
// re-propagation), so the cost of an edit scales with its fan-out cone, not
// the design — while staying bit-identical to a cold compile + full
// propagation of the edited netlist (the differential tests in this package
// pin that down; TestApplyBeatsColdRebuild holds the cost claim at >= 10x on
// block-1).

import (
	"fmt"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/levelize"
	"insta/internal/num"
	"insta/internal/obs"
)

// Delta is one annotation of an arc of the session's working tables, used by
// Annotate.
type Delta struct {
	Arc   int32
	Delay [2]num.Dist
}

// SessionStats accumulates what a session's edits did, for metrics.
type SessionStats struct {
	Edits     int // structural Apply batches
	Inserted  int // buffers spliced in
	Removed   int // buffers removed
	Annotated int // arcs rewritten via structural batches
	NewPins   int // pins appended
	Relevel   levelize.IncStats
}

// Session is one structural ECO session over a frozen base.
//
// Concurrency contract: a Session is single-threaded. Apply and Annotate
// read the base engine's tensors (seeded construction), so the base must be
// frozen for the duration of the call — the serving layer holds its engine
// read lock. Reset, Detach and Close touch only session-owned state.
type Session struct {
	baseTab   *circuitops.Tables
	baseState *core.State
	baseEng   *core.Engine

	tab   *circuitops.Tables
	state *core.State
	eng   *core.Engine

	stats    SessionStats
	detached bool
	closed   bool
	tracer   *obs.Tracer // optional; nil-safe span annotations on Apply/Detach
}

// SetTracer attaches a span tracer: each Apply and the final Detach emit
// spans ("topo-apply" with recompile/reseed children, "topo-detach"), so
// structural commits show up in request traces and /debug/trace captures.
// Nil (the default) and disabled tracers cost one branch.
func (s *Session) SetTracer(t *obs.Tracer) { s.tracer = t }

// NewSession opens a structural session over base engine e, which must be
// fully evaluated — Run, or a previous structural commit — and may carry any
// number of lanes. The base tables are reconstructed from the engine's
// current state, so annotation ECOs committed before the session opened are
// already folded in.
func NewSession(e *core.Engine) (*Session, error) {
	if e == nil {
		return nil, fmt.Errorf("topo: nil base engine")
	}
	st := e.ExportState()
	s := &Session{
		baseTab:   st.Tables(),
		baseState: st,
		baseEng:   e,
	}
	s.tab, s.state, s.eng = s.baseTab, s.baseState, s.baseEng
	return s, nil
}

// Engine returns the session's current working engine: the base engine until
// the first Apply, the latest seeded engine after. Read-only for callers.
func (s *Session) Engine() *core.Engine { return s.eng }

// closeWorking closes the working engine unless it is still the shared base.
func (s *Session) closeWorking() {
	if s.eng != s.baseEng {
		s.eng.Close()
	}
}

// Tables returns the session's current working tables. Callers must not
// mutate them; a cold core.Compile of this value is the session's
// bit-identity oracle.
func (s *Session) Tables() *circuitops.Tables { return s.tab }

// Stats returns the session's cumulative edit statistics; Relevel reflects
// the most recent Apply.
func (s *Session) Stats() SessionStats { return s.stats }

// Edited reports whether the session holds uncommitted structural edits.
func (s *Session) Edited() bool { return s.stats.Edits > 0 }

// Apply validates and applies one structural op batch, recompiles the edited
// tables with localized re-levelization, and stands up the next working
// engine seeded from the current one. On any error the session — tables,
// compiled state, engine — is left exactly as it was (the op batch validates
// before it writes, and a failed reseed leaves the current engine untouched).
func (s *Session) Apply(ops []Op) (*Result, error) {
	if s.detached || s.closed {
		return nil, fmt.Errorf("topo: session is no longer active")
	}
	sp := s.tracer.StartArg("topo-apply", "ops", int64(len(ops)))
	defer sp.End()
	// Once the working tables are session-private (after the first edit) the
	// batch applies in place — the arc-table clone, like the slab rebuild and
	// the tensor allocation below, drops out of the steady-state preview.
	res, err := applyOps(s.tab, ops, s.tab != s.baseTab)
	if err != nil {
		return nil, err
	}
	// Recompile: append/rewrite batches patch the previous compiled state —
	// cannibalizing it in place once it is session-private — instead of
	// rebuilding every O(arcs) slab; a buffer removal changes the arc count
	// of pins that already exist, which like any other unpatchable shape
	// takes the slow slab rebuild. Both are bit-identical to a cold Compile
	// of the edited tables.
	csp := sp.Child("topo-recompile")
	var st *core.State
	var inc levelize.IncStats
	if res.Removed == 0 {
		st, inc, err = core.CompileIncrementalPatched(res.Tables, s.state, res.Seeds, res.Changed, s.state != s.baseState)
		if err != nil {
			st = nil
		}
	}
	if st == nil {
		st, inc, err = core.CompileIncremental(res.Tables, s.state, res.Seeds)
		if err != nil {
			csp.End()
			return nil, err
		}
	}
	csp.End()
	// Stand up the working engine: seeded fresh off the shared base on the
	// first edit, reseeded in place once it is session-private — the steady
	// state, where an edit costs no tensor allocation at all.
	rsp := sp.ChildArg("topo-reseed", "seeds", int64(len(res.Seeds)))
	defer rsp.End()
	eng, err := s.eng.Reseed(st, res.Seeds, s.eng != s.baseEng)
	if err != nil {
		return nil, err
	}

	s.tab, s.state, s.eng = res.Tables, st, eng
	s.stats.Edits++
	s.stats.Inserted += res.Inserted
	s.stats.Removed += res.Removed
	s.stats.Annotated += res.Annotated
	s.stats.NewPins += res.NewPins
	s.stats.Relevel = inc
	return res, nil
}

// Annotate rewrites arc delays in the session's working tables — annotation
// ECOs arriving on a session that already holds structural edits
// fold in here, keeping the working tables and engine delay-synchronized so
// the cold-compile oracle stays exact. Only legal after the first Apply: the
// working set before that IS the shared base, which a session must never
// mutate (pre-structural annotations belong in the serving overlay).
func (s *Session) Annotate(deltas []Delta) error {
	if s.detached || s.closed {
		return fmt.Errorf("topo: session is no longer active")
	}
	if s.stats.Edits == 0 {
		return fmt.Errorf("topo: no structural edits; annotate through the overlay")
	}
	for _, d := range deltas {
		if d.Arc < 0 || int(d.Arc) >= len(s.tab.Arcs) {
			return fmt.Errorf("topo: annotate: arc %d out of range [0,%d)", d.Arc, len(s.tab.Arcs))
		}
		for rf := 0; rf < 2; rf++ {
			if d.Delay[rf].Std < 0 {
				return fmt.Errorf("topo: annotate: negative sigma on arc %d", d.Arc)
			}
		}
	}
	arcs := make([]int32, 0, len(deltas))
	for _, d := range deltas {
		a := &s.tab.Arcs[d.Arc]
		a.MeanRise, a.StdRise = d.Delay[0].Mean, d.Delay[0].Std
		a.MeanFall, a.StdFall = d.Delay[1].Mean, d.Delay[1].Std
		for rf := 0; rf < 2; rf++ {
			s.eng.SetArcDelay(d.Arc, rf, d.Delay[rf])
			// The session-private compiled state is the `prev` of the next
			// patched recompile, whose unchanged rows are taken on faith —
			// keep its annotation slabs coherent with the tables. (After an
			// in-place reseed the engine aliases these slabs and the write
			// above already landed here; this is then a harmless re-store.)
			s.state.ArcMean[rf][d.Arc] = d.Delay[rf].Mean
			s.state.ArcStd[rf][d.Arc] = d.Delay[rf].Std
		}
		arcs = append(arcs, d.Arc)
	}
	s.eng.PropagateIncremental(arcs)
	s.eng.RefreshSlacks()
	if s.eng.HoldEnabled() {
		s.eng.RefreshHoldSlacks()
	}
	return nil
}

// Reset rolls every structural edit back: the working engine is closed and
// the session points at the untouched base again.
func (s *Session) Reset() {
	if s.detached || s.closed {
		return
	}
	s.closeWorking()
	s.tab, s.state, s.eng = s.baseTab, s.baseState, s.baseEng
	s.stats = SessionStats{}
}

// Detached is the working set a commit takes over from a session.
type Detached struct {
	Tables *circuitops.Tables
	State  *core.State
	Engine *core.Engine
	Stats  SessionStats
}

// Detach hands the session's working set to the caller — the commit path:
// the caller becomes the owner of the engine (and its Close), and the
// session deactivates without touching it. Fails when there is nothing to
// commit.
func (s *Session) Detach() (*Detached, error) {
	if s.detached || s.closed {
		return nil, fmt.Errorf("topo: session is no longer active")
	}
	if s.stats.Edits == 0 {
		return nil, fmt.Errorf("topo: no structural edits to commit")
	}
	dsp := s.tracer.StartArg("topo-detach", "edits", int64(s.stats.Edits))
	defer dsp.End()
	d := &Detached{
		Tables: s.tab,
		State:  s.state,
		Engine: s.eng,
		Stats:  s.stats,
	}
	s.detached = true
	return d, nil
}

// Close releases the session's working engine unless it was detached (or is
// the shared base). Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if !s.detached {
		s.closeWorking()
	}
	s.closed = true
}
