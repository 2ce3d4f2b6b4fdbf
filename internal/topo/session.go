package topo

// Structural ECO sessions: one fully evaluated working engine (every lane of
// it, when the base carries scenarios), which carries the compiled state it
// times, rebuilt incrementally per op batch. The session is the
// preview/commit/rollback unit the serving layer wraps:
//
//	preview  = Apply against the working set — buffer insertions and
//	           removals, and annotations (the serving layer's estimate_eco
//	           deltas and raw arc ECOs arrive as Annotate ops); the base
//	           engine stays frozen and shared with concurrent annotation
//	           sessions
//	commit   = Detach hands the working set to the owner, which swaps it in
//	           as the new base
//	rollback = Reset closes the working engine and points the session back
//	           at the base
//
// Apply is the one way into the working set. Each batch validates against
// the session's compiled state and yields the arc rows it writes;
// core.CompileIncrementalPatched patches them into the previous state's slabs
// (a bypass rebuilds the fan-out CSR) with localized re-levelization, and
// core.Engine.Reseed stands up the next working engine (cone-limited
// re-propagation). So the cost of an edit scales with its fan-out cone, not
// the design, while staying bit-identical to a cold compile + full
// propagation of the edited netlist (the differential tests in this package
// pin that down against tables they advance themselves;
// TestApplyBeatsColdRebuild holds the cost claim at >= 10x on block-1).

import (
	"fmt"
	"slices"

	"insta/internal/core"
	"insta/internal/levelize"
	"insta/internal/obs"
)

// SessionStats accumulates what a session's edits did, for metrics.
type SessionStats struct {
	Edits     int // Apply batches
	Inserted  int // buffers spliced in
	Removed   int // buffers removed
	Annotated int // arcs re-annotated
	NewPins   int // pins appended
	Relevel   levelize.IncStats
}

// Session is one structural ECO session over a frozen base.
//
// Concurrency contract: a Session is single-threaded. Apply reads the base
// engine's tensors (seeded construction), so the base must be
// frozen for the duration of the call — the serving layer holds its engine
// read lock. Reset, Detach and Close touch only session-owned state.
type Session struct {
	baseEng *core.Engine
	eng     *core.Engine // the working engine, which carries the state it edits

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
// number of lanes. The base state is the engine's current one, so annotation
// ECOs committed before the session opened are already folded in.
func NewSession(e *core.Engine) (*Session, error) {
	if e == nil {
		return nil, fmt.Errorf("topo: nil base engine")
	}
	return &Session{baseEng: e, eng: e}, nil
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

// Stats returns the session's cumulative edit statistics; Relevel reflects
// the most recent Apply.
func (s *Session) Stats() SessionStats { return s.stats }

// Edited reports whether the session holds uncommitted structural edits.
func (s *Session) Edited() bool { return s.stats.Edits > 0 }

// Apply validates and applies one structural op batch, patches the working
// state with localized re-levelization, and stands up the next working engine
// seeded from the current one. On any error the session — compiled state,
// engine — is left exactly as it was (the op batch validates before it
// writes, and a failed reseed leaves the current engine untouched).
func (s *Session) Apply(ops []Op) (*Result, error) {
	if s.detached || s.closed {
		return nil, fmt.Errorf("topo: session is no longer active")
	}
	sp := s.tracer.StartArg("topo-apply", "ops", int64(len(ops)))
	defer sp.End()
	cur := s.eng.ExportState()
	res, err := Apply(cur, ops)
	if err != nil {
		return nil, err
	}
	// Recompile by patching the working engine's state — cannibalizing it in
	// place once the engine is session-private, so the slab copies, like the
	// tensor allocation below, drop out of the steady-state preview — instead
	// of rebuilding every O(arcs) slab; bit-identical to a cold Compile of the
	// edited netlist.
	owned := s.eng != s.baseEng
	// The reseed also re-derives which pins are derived (core.Engine.Reseed):
	// a pin an edited arc no longer leaves from has lost a fan-out, and only
	// cur, before the patch rewrites it, still says which one.
	seeds := slices.Clip(res.Seeds)
	for _, ed := range res.Edits {
		if int(ed.ID) < len(cur.ArcFrom) && cur.ArcFrom[ed.ID] != ed.Row.From {
			seeds = append(seeds, cur.ArcFrom[ed.ID])
		}
	}
	csp := sp.Child("topo-recompile")
	st, inc, err := core.CompileIncrementalPatched(cur, res.Edits, res.NewPins, res.Seeds, owned)
	csp.End()
	if err != nil {
		return nil, err
	}
	// Stand up the working engine: seeded fresh off the shared base on the
	// first edit, reseeded in place once it is session-private — the steady
	// state, where an edit costs no tensor allocation at all.
	rsp := sp.ChildArg("topo-reseed", "seeds", int64(len(res.Seeds)))
	defer rsp.End()
	eng, err := s.eng.Reseed(st, seeds, owned)
	if err != nil {
		return nil, err
	}

	s.eng = eng
	s.stats.Edits++
	s.stats.Inserted += res.Inserted
	s.stats.Removed += res.Removed
	s.stats.Annotated += res.Annotated
	s.stats.NewPins += res.NewPins
	s.stats.Relevel = inc
	return res, nil
}

// Reset rolls every structural edit back: the working engine is closed and
// the session points at the untouched base again.
func (s *Session) Reset() {
	if s.detached || s.closed {
		return
	}
	s.closeWorking()
	s.eng = s.baseEng
	s.stats = SessionStats{}
}

// Detached is the working set a commit takes over from a session: the
// engine, which carries the working state, and what the edits did.
type Detached struct {
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
	d := &Detached{Engine: s.eng, Stats: s.stats}
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
