// Package topo implements topology-mutating ECO operations over a compiled
// design (core.State): buffer insertion and removal splice pins and arcs into
// the timing graph, and annotation ops (the arc-level form of repower and
// move) rewrite arc delays in place. It is the structural layer under the
// serving stack's /session/{id}/topo endpoint and the InstaBuffer client. A
// session's annotation ECOs never come here, structural session or not: its
// overlay re-annotates a frozen graph, and a structural batch first commits
// that overlay into the session's working engine. This package edits the
// graph itself and, through Edit, re-levelizes and re-propagates only the
// region downstream of the edit. Every change reaches a working engine the
// same way: a session's first structural batch forks the shared base
// (core.Engine.Fork), and every batch, the first included, is one Edit of
// that fork in place; whoever holds it (a serving session) decides when it
// is committed or closed.
//
// A working engine carries its compiled state; no extraction tables are kept.
// Apply reads the batch-start rows through core.State.Arc and hands back the
// rows the batch writes as core.ArcEdits, which core.Engine.Patch patches
// into the engine's state.
//
// Edits follow two global invariants that keep incremental recompilation
// exact and cheap:
//
//   - Pin ids are append-only. InsertBuffer appends the buffer's input and
//     output pins at the end of the pin space; RemoveBuffer leaves the
//     buffer's pins in place. No pin is ever renumbered, so an engine's
//     per-pin tensors remain valid arrival state for every pin outside the
//     edit's fan-out cone (what core.Engine.Patch's reseed relies on).
//   - Arc ids are append-only too. InsertBuffer appends the buffer's cell arc
//     and sink-side wire; RemoveBuffer bypasses the buffer — its sink wires
//     are re-pointed at the driver — and leaves the input wire and the cell
//     arc in their rows as a dead-end stub that reaches no endpoint. No row
//     is ever deleted or renumbered, so an arc id handed out once names the
//     same row in every later state, working set and committed base.
//
// Application is batch-atomic: every op is validated against a claim-tracked
// snapshot before any row is built — a failed batch leaves the state (and
// everything downstream: engines, freelists) untouched.
package topo

import (
	"fmt"
	"math"
	"slices"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/levelize"
	"insta/internal/liberty"
	"insta/internal/num"
)

// OpKind discriminates structural ops.
type OpKind uint8

const (
	// OpInsertBuffer splices a buffer into a net arc u→v: the arc becomes
	// u→x (the driver-side wire), a new cell arc x→y (the buffer) and a new
	// net arc y→v (the sink-side wire), with pins x, y appended.
	OpInsertBuffer OpKind = iota
	// OpRemoveBuffer bypasses the shape InsertBuffer creates: every output
	// wire y→v of the buffer x→y is rewritten to a direct u→v with the
	// composed delay, u being the driver of the buffer's single input wire.
	// u→x and x→y keep their rows: a stub that drives nothing.
	OpRemoveBuffer
	// OpAnnotate rewrites one arc's delay distributions in place — the
	// arc-level form of repower (cell arcs re-characterized for a new
	// drive) and move (net arcs re-derived from new RC). No topology change.
	OpAnnotate
)

// String names the op kind for diagnostics and metrics.
func (k OpKind) String() string {
	switch k {
	case OpInsertBuffer:
		return "insert-buffer"
	case OpRemoveBuffer:
		return "remove-buffer"
	case OpAnnotate:
		return "annotate"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one structural edit. Arc ids address the state as it is at the start
// of the batch; each op claims the arcs it touches and two ops may not
// claim the same arc (the batch would not be order-independent).
type Op struct {
	Kind OpKind

	// Arc is the target: the net arc to split (InsertBuffer), the buffer's
	// cell arc (RemoveBuffer), or the arc to re-annotate (Annotate).
	Arc int32

	// Cell is the liberty cell id recorded on the inserted buffer arc
	// (InsertBuffer only; -1 when untracked — gradients skip cell-less arcs).
	Cell int32

	// Delay is the new delay per output transition: the buffer cell arc's
	// delay (InsertBuffer) or the replacement annotation (Annotate).
	Delay [2]num.Dist

	// DriverFrac is the fraction of the split net arc's delay kept on the
	// driver side u→x (InsertBuffer only); 0 means the default 0.5.
	DriverFrac float64
}

// InsertBuffer builds an insert-buffer op: splice a buffer (liberty cell
// cell, gate delay d) into net arc arc, keeping frac of the wire delay on
// the driver side (0 = half).
func InsertBuffer(arc, cell int32, d [2]num.Dist, frac float64) Op {
	return Op{Kind: OpInsertBuffer, Arc: arc, Cell: cell, Delay: d, DriverFrac: frac}
}

// RemoveBuffer builds a remove-buffer op for the buffer whose cell arc is
// cellArc.
func RemoveBuffer(cellArc int32) Op {
	return Op{Kind: OpRemoveBuffer, Arc: cellArc}
}

// Annotate builds an annotation op: rewrite arc's delay to d. Repower and
// move reach a working set as batches of these (see refsta.EstimateECO,
// refsta.EstimateBuffer and refsta.EstimateMove for the delay derivations).
func Annotate(arc int32, d [2]num.Dist) Op {
	return Op{Kind: OpAnnotate, Arc: arc, Delay: d}
}

// Result is one applied batch: the arc rows it writes and the
// re-propagation seeds. The state it was validated against is never mutated;
// core.Engine.Patch writes the two into an engine.
type Result struct {
	// Edits lists every arc row the batch writes, in op order: an insert
	// lists its rewritten wire and then its two appended arcs, a removal its
	// re-pointed sink wires, an annotation its arc.
	Edits []core.ArcEdit

	// Seeds are the pins whose fan-in set or fan-in delay changed (including
	// appended pins), sorted — the seed set core.Engine.Patch re-levelizes and
	// re-propagates from.
	Seeds []int32

	// NewPins counts pins appended by the batch.
	NewPins int

	// Inserted, Removed, Annotated count applied ops by kind.
	Inserted, Removed, Annotated int

	// Relevel is what the patch re-levelized (set by Edit).
	Relevel levelize.IncStats
}

// Stats accumulates what a working engine's edits did, for metrics.
type Stats struct {
	Edits     int               // Edit batches
	Inserted  int               // buffers spliced in
	Removed   int               // buffers removed
	Annotated int               // arcs re-annotated
	NewPins   int               // pins appended
	Relevel   levelize.IncStats // the most recent batch's
}

// Add counts one applied batch.
func (s *Stats) Add(r *Result) {
	s.Edits++
	s.Inserted += r.Inserted
	s.Removed += r.Removed
	s.Annotated += r.Annotated
	s.NewPins += r.NewPins
	s.Relevel = r.Relevel
}

// Apply validates a batch of structural ops against st — core.Compile output,
// or the last patched recompile of it — and returns the rows the batch writes.
// Ops read rows through st.Arc and adjacency through st's CSRs; removals also
// validate against its startpoint/endpoint tables. Validation is strict and
// happens entirely before the first row is built, and st is only read: any
// error returns no partial result.
func Apply(st *core.State, ops []Op) (*Result, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("topo: empty op batch")
	}
	nArcs := len(st.ArcFrom)
	// Batch-start adjacency: the state's CSRs list a pin's arcs in ascending
	// id order.
	fanin := func(p int32) []int32 { return st.FaninArc[st.FaninStart[p]:st.FaninStart[p+1]] }
	fanout := func(p int32) []int32 { return st.FoArc[st.FoStart[p]:st.FoStart[p+1]] }
	timed := func(p int32) bool { return st.SpOfPin[p] >= 0 || st.EpOfPin[p] >= 0 }
	posNet := func(a circuitops.ArcRow) bool {
		return a.Kind == 1 && liberty.Unate(a.Sense) == liberty.PositiveUnate
	}

	// Validate every op against the snapshot, claiming arcs as we go.
	claimed := make(map[int32]string)
	claim := func(arc int32, op string) error {
		if arc < 0 || int(arc) >= nArcs {
			return fmt.Errorf("topo: %s: arc %d out of range [0,%d)", op, arc, nArcs)
		}
		if prev, ok := claimed[arc]; ok {
			return fmt.Errorf("topo: %s: arc %d already claimed by %s", op, arc, prev)
		}
		claimed[arc] = op
		return nil
	}
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case OpInsertBuffer:
			if err := claim(op.Arc, op.Kind.String()); err != nil {
				return nil, err
			}
			a := st.Arc(op.Arc)
			if a.Kind != 1 {
				return nil, fmt.Errorf("topo: insert-buffer: arc %d is not a net arc", op.Arc)
			}
			if liberty.Unate(a.Sense) != liberty.PositiveUnate {
				return nil, fmt.Errorf("topo: insert-buffer: net arc %d is not positive-unate", op.Arc)
			}
			if f := op.DriverFrac; f < 0 || f > 1 {
				return nil, fmt.Errorf("topo: insert-buffer: driver fraction %g outside [0,1]", f)
			}
			for rf := 0; rf < 2; rf++ {
				if op.Delay[rf].Std < 0 {
					return nil, fmt.Errorf("topo: insert-buffer: negative sigma on arc %d", op.Arc)
				}
			}
		case OpRemoveBuffer:
			if err := claim(op.Arc, op.Kind.String()); err != nil {
				return nil, err
			}
			ca := st.Arc(op.Arc)
			if ca.Kind != 0 {
				return nil, fmt.Errorf("topo: remove-buffer: arc %d is not a cell arc", op.Arc)
			}
			if liberty.Unate(ca.Sense) != liberty.PositiveUnate {
				return nil, fmt.Errorf("topo: remove-buffer: cell arc %d is not positive-unate (not a buffer)", op.Arc)
			}
			x, y := ca.From, ca.To
			if timed(x) || timed(y) {
				return nil, fmt.Errorf("topo: remove-buffer: buffer pins %d/%d are timing start/endpoints", x, y)
			}
			if len(fanout(x)) != 1 || len(fanin(y)) != 1 {
				return nil, fmt.Errorf("topo: remove-buffer: pins %d/%d have side fanout/fanin, not a buffer", x, y)
			}
			ins := fanin(x)
			if len(ins) != 1 {
				return nil, fmt.Errorf("topo: remove-buffer: buffer input pin %d has %d fan-in arcs, want 1", x, len(ins))
			}
			if !posNet(st.Arc(ins[0])) {
				return nil, fmt.Errorf("topo: remove-buffer: input arc %d of pin %d is not a net arc", ins[0], x)
			}
			outs := fanout(y)
			if len(outs) == 0 {
				return nil, fmt.Errorf("topo: remove-buffer: buffer output pin %d drives nothing", y)
			}
			for _, o := range outs {
				if !posNet(st.Arc(o)) {
					return nil, fmt.Errorf("topo: remove-buffer: output arc %d of pin %d is not a net arc", o, y)
				}
			}
			if err := claim(ins[0], op.Kind.String()); err != nil {
				return nil, err
			}
			for _, o := range outs {
				if err := claim(o, op.Kind.String()); err != nil {
					return nil, err
				}
			}
		case OpAnnotate:
			if err := claim(op.Arc, op.Kind.String()); err != nil {
				return nil, err
			}
			for rf := 0; rf < 2; rf++ {
				if op.Delay[rf].Std < 0 {
					return nil, fmt.Errorf("topo: annotate: negative sigma on arc %d", op.Arc)
				}
			}
		default:
			return nil, fmt.Errorf("topo: unknown op kind %d", op.Kind)
		}
	}

	// Build the rows. Every row an op reads it has claimed, so it reads the
	// batch-start row from st whatever the other ops write; appended pins and
	// arcs are numbered in op order.
	res := &Result{}
	seeds := make(map[int32]bool)
	numPins, appended := int32(st.NumPins), int32(nArcs)
	edit := func(id int32, row circuitops.ArcRow) {
		res.Edits = append(res.Edits, core.ArcEdit{ID: id, Row: row})
	}

	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case OpInsertBuffer:
			frac := op.DriverFrac
			if frac == 0 {
				frac = 0.5
			}
			orig := st.Arc(op.Arc)
			v := orig.To
			x := numPins
			y := x + 1
			numPins += 2
			res.NewPins += 2
			// u→v becomes u→x with the driver-side share of the wire delay.
			a := orig
			a.To = x
			a.MeanRise *= frac
			a.StdRise *= frac
			a.MeanFall *= frac
			a.StdFall *= frac
			edit(op.Arc, a)
			// x→y: the buffer's gate arc.
			edit(appended, circuitops.ArcRow{
				From: x, To: y, Kind: 0, Sense: uint8(liberty.PositiveUnate),
				Cell: op.Cell, Net: -1,
				MeanRise: op.Delay[liberty.Rise].Mean, StdRise: op.Delay[liberty.Rise].Std,
				MeanFall: op.Delay[liberty.Fall].Mean, StdFall: op.Delay[liberty.Fall].Std,
			})
			// y→v: the sink-side share of the wire.
			edit(appended+1, circuitops.ArcRow{
				From: y, To: v, Kind: 1, Sense: uint8(liberty.PositiveUnate),
				Cell: -1, Net: orig.Net,
				MeanRise: orig.MeanRise * (1 - frac), StdRise: orig.StdRise * (1 - frac),
				MeanFall: orig.MeanFall * (1 - frac), StdFall: orig.StdFall * (1 - frac),
			})
			appended += 2
			seeds[x] = true
			seeds[y] = true
			seeds[v] = true
			res.Inserted++
		case OpRemoveBuffer:
			ca := st.Arc(op.Arc)
			uin := st.Arc(fanin(ca.From)[0])
			for _, o := range fanout(ca.To) {
				oa := st.Arc(o)
				// u→v replaces u→x→y→v: means add, sigmas RSS (independent
				// stage variations, the same composition the extraction uses
				// along a path).
				oa.From = uin.From
				oa.Net = uin.Net
				oa.MeanRise = uin.MeanRise + ca.MeanRise + oa.MeanRise
				oa.StdRise = math.Sqrt(uin.StdRise*uin.StdRise + ca.StdRise*ca.StdRise + oa.StdRise*oa.StdRise)
				oa.MeanFall = uin.MeanFall + ca.MeanFall + oa.MeanFall
				oa.StdFall = math.Sqrt(uin.StdFall*uin.StdFall + ca.StdFall*ca.StdFall + oa.StdFall*oa.StdFall)
				seeds[oa.To] = true
				edit(o, oa)
			}
			res.Removed++
		case OpAnnotate:
			a := st.Arc(op.Arc)
			a.MeanRise = op.Delay[liberty.Rise].Mean
			a.StdRise = op.Delay[liberty.Rise].Std
			a.MeanFall = op.Delay[liberty.Fall].Mean
			a.StdFall = op.Delay[liberty.Fall].Std
			seeds[a.To] = true
			edit(op.Arc, a)
			res.Annotated++
		}
	}

	res.Seeds = make([]int32, 0, len(seeds))
	for p := range seeds {
		res.Seeds = append(res.Seeds, p)
	}
	slices.Sort(res.Seeds)
	return res, nil
}

// Edit applies one op batch to working engine e in place: Apply validates the
// batch against e's state and yields its rows, and e.Patch patches them in
// with localized re-levelization and re-propagates only the edited cone. The
// result is bit-identical to a cold compile and full propagation of the
// edited netlist. e is the caller's own — a Fork of a shared base, never the
// base itself. A rejected batch returns an error and leaves e as it was: the
// batch validates before anything is written.
func Edit(e *core.Engine, ops []Op) (*Result, error) {
	sp := e.Tracer().StartArg("topo-apply", "ops", int64(len(ops)))
	defer sp.End()
	res, err := Apply(e.ExportState(), ops)
	if err != nil {
		return nil, err
	}
	if res.Relevel, err = e.Patch(res.Edits, res.NewPins, res.Seeds); err != nil {
		return nil, err
	}
	return res, nil
}
