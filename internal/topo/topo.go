// Package topo implements topology-mutating ECO operations over the
// extraction tables: buffer insertion and removal splice pins and arcs into
// the timing graph, and annotation ops (the table-level form of repower and
// move) rewrite arc delays in place. It is the structural layer under the
// serving stack's /session/{id}/topo endpoint, the InstaBuffer client and any
// annotation ECO on a session that holds structural edits — overlay sessions
// can only re-annotate a frozen graph; this package edits the graph itself
// and, through Session, re-levelizes and re-propagates only the region
// downstream of the edit. Every change reaches a working set the same way: one
// op batch through Session.Apply.
//
// Edits follow two global invariants that keep incremental recompilation
// exact and cheap:
//
//   - Pin ids are append-only. InsertBuffer appends the buffer's input and
//     output pins at the end of the pin space; RemoveBuffer leaves the
//     buffer's pins in place. No pin is ever renumbered, so a previous
//     engine's per-pin tensors remain valid arrival state for every pin
//     outside the edit's fan-out cone (core.Engine.Reseed's contract).
//   - Arc ids are append-only too. InsertBuffer appends the buffer's cell arc
//     and sink-side wire; RemoveBuffer bypasses the buffer — its sink wires
//     are re-pointed at the driver — and leaves the input wire and the cell
//     arc in their rows as a dead-end stub that reaches no endpoint. No row
//     is ever deleted or renumbered, so an arc id handed out once names the
//     same row in every later table, working set and committed base.
//
// Application is batch-atomic: every op is validated against a claim-tracked
// snapshot before anything is written — a failed batch leaves the input
// tables (and everything downstream: compiled state, engines, freelists)
// untouched.
package topo

import (
	"fmt"
	"math"
	"slices"

	"insta/internal/circuitops"
	"insta/internal/core"
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
	// table-level form of repower (cell arcs re-characterized for a new
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

// Op is one structural edit. Arc ids address the tables as they are at the
// start of the batch; each op claims the arcs it touches and two ops may not
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
// move reach the tables as batches of these (see refsta.EstimateECO,
// refsta.EstimateBuffer and refsta.EstimateMove for the delay derivations).
func Annotate(arc int32, d [2]num.Dist) Op {
	return Op{Kind: OpAnnotate, Arc: arc, Delay: d}
}

// Result is one applied batch: the edited tables (via Apply, a clone — the
// input is never mutated; sessions edit their private tables in place) and the
// re-propagation seeds.
type Result struct {
	Tables *circuitops.Tables

	// Seeds are the pins whose fan-in set or fan-in delay changed (including
	// appended pins), sorted — the seed set core.CompileIncrementalPatched
	// re-levelizes from and core.Engine.Reseed re-propagates from.
	Seeds []int32

	// Changed lists every arc id whose row differs from the input tables —
	// rewritten in place or appended; it is the change set
	// core.CompileIncrementalPatched patches.
	Changed []int32

	// NewPins counts pins appended by the batch.
	NewPins int

	// Inserted, Removed, Annotated count applied ops by kind.
	Inserted, Removed, Annotated int
}

// Apply validates and applies a batch of structural ops to t, returning the
// edited clone. st is t's compiled state (core.Compile output, or the last
// patched recompile of the same tables): removals validate against its
// adjacency and startpoint/endpoint tables. Validation is strict and happens
// entirely before the first write: any error leaves t untouched and returns no
// partial result.
func Apply(t *circuitops.Tables, st *core.State, ops []Op) (*Result, error) {
	return applyOps(t, st, ops, false)
}

// applyOps is Apply with an ownership flag: inPlace=true edits t directly —
// no arc-table clone — which Session uses once its working tables are
// private (every preview after the first). Safe because validation is
// complete before the first write, so the no-partial-edit guarantee holds
// either way.
func applyOps(t *circuitops.Tables, st *core.State, ops []Op, inPlace bool) (*Result, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("topo: empty op batch")
	}
	nArcs := len(t.Arcs)
	if st.NumPins != t.NumPins || len(st.ArcFrom) != nArcs {
		return nil, fmt.Errorf("topo: compiled state (%d pins, %d arcs) is not of these tables (%d, %d)", st.NumPins, len(st.ArcFrom), t.NumPins, nArcs)
	}
	// Batch-start adjacency: the state's CSRs list a pin's arcs in ascending
	// id order, as the tables number them.
	fanin := func(p int32) []int32 { return st.FaninArc[st.FaninStart[p]:st.FaninStart[p+1]] }
	fanout := func(p int32) []int32 { return st.FoArc[st.FoStart[p]:st.FoStart[p+1]] }
	timed := func(p int32) bool { return st.SpOfPin[p] >= 0 || st.EpOfPin[p] >= 0 }

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
			a := &t.Arcs[op.Arc]
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
			ca := &t.Arcs[op.Arc]
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
			uin := &t.Arcs[ins[0]]
			if uin.Kind != 1 || liberty.Unate(uin.Sense) != liberty.PositiveUnate {
				return nil, fmt.Errorf("topo: remove-buffer: input arc %d of pin %d is not a net arc", ins[0], x)
			}
			outs := fanout(y)
			if len(outs) == 0 {
				return nil, fmt.Errorf("topo: remove-buffer: buffer output pin %d drives nothing", y)
			}
			for _, o := range outs {
				oa := &t.Arcs[o]
				if oa.Kind != 1 || liberty.Unate(oa.Sense) != liberty.PositiveUnate {
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

	// Apply on a clone — shallow struct copy (SP/EP/clock/exception rows are
	// shared, never mutated by structural edits) with a fresh arc slice — or
	// directly on t when the caller owns it. Every row an op reads it has
	// claimed, so no op sees another's writes either way.
	out := t
	if !inPlace {
		c := *t
		c.Arcs = append(make([]circuitops.ArcRow, 0, nArcs+2*len(ops)), t.Arcs...)
		out = &c
	}
	res := &Result{Tables: out}
	seeds := make(map[int32]bool)

	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case OpInsertBuffer:
			frac := op.DriverFrac
			if frac == 0 {
				frac = 0.5
			}
			// Pre-edit row captured by value: the in-place path has no
			// pristine t to read back from, and the appends below may move
			// the arc backing anyway.
			orig := out.Arcs[op.Arc]
			v := orig.To
			x := int32(out.NumPins)
			y := x + 1
			out.NumPins += 2
			res.NewPins += 2
			// u→v becomes u→x with the driver-side share of the wire delay.
			a := &out.Arcs[op.Arc]
			a.To = x
			a.MeanRise *= frac
			a.StdRise *= frac
			a.MeanFall *= frac
			a.StdFall *= frac
			// x→y: the buffer's gate arc.
			out.Arcs = append(out.Arcs, circuitops.ArcRow{
				From: x, To: y, Kind: 0, Sense: uint8(liberty.PositiveUnate),
				Cell: op.Cell, Net: -1,
				MeanRise: op.Delay[liberty.Rise].Mean, StdRise: op.Delay[liberty.Rise].Std,
				MeanFall: op.Delay[liberty.Fall].Mean, StdFall: op.Delay[liberty.Fall].Std,
			})
			// y→v: the sink-side share of the wire.
			out.Arcs = append(out.Arcs, circuitops.ArcRow{
				From: y, To: v, Kind: 1, Sense: uint8(liberty.PositiveUnate),
				Cell: -1, Net: orig.Net,
				MeanRise: orig.MeanRise * (1 - frac), StdRise: orig.StdRise * (1 - frac),
				MeanFall: orig.MeanFall * (1 - frac), StdFall: orig.StdFall * (1 - frac),
			})
			seeds[x] = true
			seeds[y] = true
			seeds[v] = true
			res.Changed = append(res.Changed, op.Arc, int32(len(out.Arcs)-2), int32(len(out.Arcs)-1))
			res.Inserted++
		case OpRemoveBuffer:
			ca := out.Arcs[op.Arc]
			uin := out.Arcs[fanin(ca.From)[0]]
			for _, o := range fanout(ca.To) {
				oa := &out.Arcs[o]
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
				res.Changed = append(res.Changed, o)
			}
			res.Removed++
		case OpAnnotate:
			a := &out.Arcs[op.Arc]
			a.MeanRise = op.Delay[liberty.Rise].Mean
			a.StdRise = op.Delay[liberty.Rise].Std
			a.MeanFall = op.Delay[liberty.Fall].Mean
			a.StdFall = op.Delay[liberty.Fall].Std
			seeds[a.To] = true
			res.Changed = append(res.Changed, op.Arc)
			res.Annotated++
		}
	}

	res.Seeds = make([]int32, 0, len(seeds))
	for p := range seeds {
		res.Seeds = append(res.Seeds, p)
	}
	slices.Sort(res.Seeds)

	// Every row written above is well-formed by construction and every input
	// was range-checked during validation, so the O(arcs) Validate is skipped:
	// the preview cost stays proportional to the edit (the differential suite
	// still compares against a cold compile, which validates).
	return res, nil
}
