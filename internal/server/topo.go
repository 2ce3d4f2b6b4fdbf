package server

// Structural ECOs on a session: resolving topo requests against the reference
// engine, applying them to the session's working set, and the structural
// commit that swaps the served engine. Arc ids are permanent: the extraction,
// the committed base and every session's working set share one id space that
// only ever grows at the end.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/topo"
)

// relevelBounds buckets the per-batch re-levelized level span — the locality
// signal of incremental re-levelization (a design-deep edit re-levels
// hundreds, a leaf edit a handful).
var relevelBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

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
// whether the engine *object* was replaced). Lock-free, like Epoch.
func (m *Manager) TopoGen() uint64 { return m.topoGenA.Load() }

// TopoOp is one structural edit in a topo batch. An arc id is permanent: it
// names the same arc in the committed engine and in every session, before and
// after any structural edit. The arcs a session appends take the ids the topo
// responses report in new_arcs.
//
//   - "buffer":   splice a buffer into net arc Arc at position Frac (0 =
//     driver, default 0.5); Lib names the buffer cell (default BUF_X4) and the
//     gate delay comes from the reference engine's frozen-slew estimate. Arc
//     keeps its id as the driver-side wire.
//   - "unbuffer": bypass the buffer whose cell arc is Arc: its output wires
//     keep their ids and become through-wires from the buffer's driver. Arc
//     and the buffer's input wire keep theirs as a stub that drives nothing;
//     annotating either is accepted and moves no slack.
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
// plus the batch's structural footprint. NewArcs is the id range [lo, hi) of
// the arcs this batch appended — always [len, len+2·inserted) over the arc
// count the batch found, each inserted buffer contributing its cell arc then
// its output net arc, in op order.
type TopoResult struct {
	View          *ECOResult `json:"view"`
	Inserted      int        `json:"inserted"`
	Removed       int        `json:"removed"`
	Annotated     int        `json:"annotated"`
	NewPins       int        `json:"new_pins"`
	NewArcs       [2]int     `json:"new_arcs"`
	RelevelLevels int        `json:"relevel_levels"`
	RelevelRegion int        `json:"relevel_region"`
	Edits         int        `json:"edits"` // cumulative op batches on the working set, ECOs included
}

type resolvedMove struct {
	cell netlist.CellID
	x, y float64
}

// rebindLocked re-targets the overlay at the manager's current engine after a
// structural commit replaced it; recorded deltas keep their arc ids. Caller
// holds s.mu and at least m.mu.RLock.
func (s *Session) rebindLocked() {
	s.ov.RebaseStructural(s.m.eng)
	s.topoGen = s.m.topoGen
}

// resolvedTopo is one structural batch after resolution: the ops to apply to
// the working set plus the netlist changes to replay on commit.
type resolvedTopo struct {
	ops []topo.Op
	rzs []resolvedResize
	mvs []resolvedMove
}

// annotate adds estimate output as Annotate ops.
func (r *resolvedTopo) annotate(deltas []refsta.ArcDelta) {
	for _, dl := range deltas {
		r.ops = append(r.ops, topo.Annotate(dl.ArcID, dl.Delay))
	}
}

// resolveTopoLocked validates one structural batch and resolves its ops into
// topo.Ops (delays priced by the reference engine's frozen-slew estimators)
// plus the netlist changes to replay on commit. Nothing is applied. Caller
// holds s.mu and at least m.mu.RLock.
func (s *Session) resolveTopoLocked(req TopoRequest) (*resolvedTopo, error) {
	r := &resolvedTopo{ops: make([]topo.Op, 0, len(req.Ops))}
	for i, op := range req.Ops {
		if err := s.resolveTopoOpLocked(op, r); errors.Is(err, ErrNoRefEngine) {
			return nil, err
		} else if err != nil {
			return nil, fmt.Errorf("server: topo op %d: %w", i, err)
		}
	}
	return r, nil
}

func (s *Session) resolveTopoOpLocked(op TopoOp, r *resolvedTopo) error {
	m := s.m
	needsArc := op.Op == "buffer" || op.Op == "unbuffer" || op.Op == "annotate"
	if lim := int32(s.arcLimitLocked()); needsArc && (op.Arc < 0 || op.Arc >= lim) {
		return fmt.Errorf("arc %d out of range [0,%d)", op.Arc, lim)
	}
	if needsRef := op.Op == "buffer" || op.Op == "repower" || op.Op == "move"; needsRef && m.ref == nil {
		return ErrNoRefEngine
	}
	switch op.Op {
	case "buffer":
		libName := op.Lib
		if libName == "" {
			libName = "BUF_X4"
		}
		lib, ok := m.ref.Lib.CellByName(libName)
		if !ok {
			return fmt.Errorf("unknown library cell %q", libName)
		}
		frac := op.Frac
		if frac == 0 {
			frac = 0.5
		}
		if math.IsNaN(frac) {
			return errors.New("frac is NaN")
		}
		// The estimators price from signoff data, which an inserted buffer's
		// arcs (ids past the extraction's) do not have.
		if int(op.Arc) >= m.ref.NumArcs() {
			return fmt.Errorf("arc %d has no signoff counterpart to estimate from", op.Arc)
		}
		d, err := m.ref.EstimateBuffer(op.Arc, lib, frac)
		if err != nil {
			return err
		}
		// Inserted buffers have no design instance, so the spliced cell
		// arc carries no cell id (gradients skip it).
		r.ops = append(r.ops, topo.InsertBuffer(op.Arc, -1, d, frac))
		// The driver sheds the sink-side wire and pin for the buffer's
		// input cap: re-annotate its cell arcs at the reduced load (this
		// is the half of buffering that helps — every other sink of the
		// net rides the faster driver). At most one buffered branch per
		// driver per batch: a second would claim the same driver arcs.
		dds, err := m.ref.EstimateBufferDriver(op.Arc, lib, frac)
		if err != nil {
			return err
		}
		r.annotate(dds)
	case "unbuffer":
		r.ops = append(r.ops, topo.RemoveBuffer(op.Arc))
	case "repower":
		rz, deltas, err := m.resolveResizeLocked(op.Cell, op.Lib)
		if err != nil {
			return err
		}
		r.annotate(deltas)
		r.rzs = append(r.rzs, rz)
	case "move":
		c, ok := m.ref.D.CellByName(op.Cell)
		if !ok {
			return fmt.Errorf("unknown cell %q", op.Cell)
		}
		if math.IsNaN(op.X+op.Y) || math.IsInf(op.X+op.Y, 0) {
			return fmt.Errorf("non-finite position (%v, %v)", op.X, op.Y)
		}
		deltas, err := m.ref.EstimateMove(c, op.X, op.Y)
		if err != nil {
			return fmt.Errorf("estimate_move %s: %w", op.Cell, err)
		}
		r.annotate(deltas)
		r.mvs = append(r.mvs, resolvedMove{cell: c, x: op.X, y: op.Y})
	case "annotate":
		if err := checkDelay(op.Rise, op.Fall); err != nil {
			return err
		}
		r.ops = append(r.ops, topo.Annotate(op.Arc, [2]num.Dist{op.Rise, op.Fall}))
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
	return nil
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
func (s *Session) ApplyTopo(req TopoRequest) (tr *TopoResult, err error) {
	if len(req.Ops) == 0 {
		return nil, errors.New("server: empty topo batch")
	}
	err = s.evalLocked(func() error {
		tr, err = s.applyTopoLocked(req)
		return err
	})
	return tr, err
}

func (s *Session) applyTopoLocked(req TopoRequest) (*TopoResult, error) {
	m := s.m
	if s.ts == nil && s.ov.Stats().TouchedArcs > 0 {
		return nil, ErrPendingAnnotations
	}
	r, err := s.resolveTopoLocked(req)
	if err != nil {
		return nil, err
	}
	// The session adopts a new working set only once its first batch is in.
	ts := s.ts
	if ts == nil {
		if ts, err = topo.NewSession(m.eng); err != nil {
			return nil, err
		}
		ts.SetTracer(m.eng.Tracer())
	}
	res, err := ts.Apply(r.ops)
	if err != nil {
		if ts != s.ts {
			ts.Close()
		}
		return nil, err
	}
	s.ts = ts
	s.resizes = append(s.resizes, r.rzs...)
	s.moves = append(s.moves, r.mvs...)
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

// commitStructuralLocked commits a session's structural working set: the
// manager swaps its base engine for the session's seeded one (the sequel
// bit-identical to a cold compile of the edited netlist), replays the
// session's repowers/moves into the signoff netlist, and bumps both the epoch
// and the structural generation. Caller holds s.mu and m.mu.Lock (every
// in-flight evaluation has drained).
func (s *Session) commitStructuralLocked(t0 time.Time) (*ECOResult, error) {
	m := s.m
	sp := m.eng.Tracer().StartArg("structural-commit", "edits", int64(s.ts.Stats().Edits))
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
	prevWNS, prevTNS := m.baseWNS, m.baseTNS
	old := m.eng
	m.eng = d.Engine
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
	s.replayNetlistLocked()
	// Re-bind this session's overlay to the engine it just installed. It
	// holds no overlay deltas (structural sessions reject them), so the
	// rebase is a pure re-point.
	s.rebindLocked()
	s.ts = nil // detached: the manager owns the working set now
	res := s.finishCommitLocked(t0, map[string]any{
		"structural": true,
		"inserted":   d.Stats.Inserted,
		"removed":    d.Stats.Removed,
	})
	res.DeltaWNS, res.DeltaTNS = res.WNS-prevWNS, res.TNS-prevTNS
	m.topoCommits.Add(1)
	m.log.Info("structural commit", "session", s.ID,
		"edits", d.Stats.Edits, "inserted", d.Stats.Inserted,
		"removed", d.Stats.Removed, "annotated", d.Stats.Annotated,
		"new_pins", d.Stats.NewPins, "epoch", m.epoch, "topo_gen", m.topoGen,
		"wns", m.baseWNS, "tns", m.baseTNS, "duration", time.Since(t0))
	return res, nil
}
