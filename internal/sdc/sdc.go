// Package sdc carries the design constraints the timing engines honour:
// the clock definition, primary input/output timing context, and the timing
// exceptions (false paths, multicycle paths) that the paper's Top-K
// unique-startpoint propagation must respect (§III-A, Fig. 2).
package sdc

import (
	"fmt"

	"insta/internal/netlist"
	"insta/internal/num"
)

// Clock defines the (single) clock domain of a design.
type Clock struct {
	Name            string
	Period          float64 // ps
	Uncertainty     float64 // setup uncertainty subtracted from required time, ps
	HoldUncertainty float64 // hold uncertainty added to the hold requirement, ps
}

// ExceptionKind distinguishes the supported timing exceptions.
type ExceptionKind uint8

// Supported exception kinds.
const (
	FalsePath ExceptionKind = iota
	Multicycle
)

func (k ExceptionKind) String() string {
	if k == FalsePath {
		return "false_path"
	}
	return "multicycle"
}

// Exception relaxes or removes timing checks between startpoints (flip-flop
// clock pins or primary inputs) and endpoints (flip-flop data pins or primary
// outputs). Empty From/To lists mean "any".
type Exception struct {
	Kind   ExceptionKind
	From   []netlist.PinID
	To     []netlist.PinID
	Cycles int // Multicycle only; number of capture cycles (>= 2 relaxes)
}

// Constraints is the full constraint set of a design.
type Constraints struct {
	Clock       Clock
	InputDelay  map[netlist.PinID]num.Dist // arrival distribution at each primary input
	InputSlew   map[netlist.PinID]float64  // driving slew at each primary input, ps
	OutputDelay map[netlist.PinID]float64  // external margin at each primary output, ps
	OutputLoad  map[netlist.PinID]float64  // external load at each primary output, fF
	Exceptions  []Exception
}

// New returns an empty constraint set for the given clock.
func New(clk Clock) *Constraints {
	return &Constraints{
		Clock:       clk,
		InputDelay:  make(map[netlist.PinID]num.Dist),
		InputSlew:   make(map[netlist.PinID]float64),
		OutputDelay: make(map[netlist.PinID]float64),
		OutputLoad:  make(map[netlist.PinID]float64),
	}
}

// Adjust is the compiled effect of exceptions on one (startpoint, endpoint)
// pair.
type Adjust struct {
	False  bool // false path: the pair is not timed
	Cycles int  // capture cycle count; 1 when no multicycle applies
}

// ExceptionTable is the compiled, O(1)-lookup form of the exception list,
// keyed by (startpoint pin, endpoint pin). It corresponds to the per-pair
// exception attributes INSTA extracts from the reference tool.
type ExceptionTable struct {
	pairs map[uint64]Adjust
	// anyFrom/anyTo handle exceptions with an open side.
	fromAny map[netlist.PinID]Adjust // -to only
	toAny   map[netlist.PinID]Adjust // -from only
	// from and to flag every pin some exception names on that side: every
	// key of pairs and fromAny has its startpoint in from, every key of
	// pairs and toAny its endpoint in to. A pair neither flags — almost every
	// pair a slack walk visits — is answered without touching the maps.
	from, to pinSet
}

// pinSet is a dense bit per pin id, sized to the largest id set.
type pinSet []uint64

func (s *pinSet) add(p netlist.PinID) {
	if p < 0 {
		return // has answers "maybe" for every negative id
	}
	i := int(p >> 6)
	if i >= len(*s) {
		*s = append(*s, make(pinSet, i+1-len(*s))...)
	}
	(*s)[i] |= 1 << (uint(p) & 63)
}

// has reports whether p may be named: false only for an id add never saw.
func (s pinSet) has(p netlist.PinID) bool {
	if p < 0 {
		return true
	}
	i := int(p >> 6)
	return i < len(s) && s[i]&(1<<(uint(p)&63)) != 0
}

func pairKey(sp, ep netlist.PinID) uint64 {
	return uint64(uint32(sp))<<32 | uint64(uint32(ep))
}

// Compile expands the exception list into the lookup table. Exceptions with
// both sides empty are rejected (a fully open exception would disable the
// whole design). False paths dominate multicycle on the same pair; among
// multicycles the larger cycle count wins, which matches signoff-tool
// precedence closely enough for this reproduction.
func (c *Constraints) Compile() (*ExceptionTable, error) {
	t := &ExceptionTable{
		pairs:   make(map[uint64]Adjust),
		fromAny: make(map[netlist.PinID]Adjust),
		toAny:   make(map[netlist.PinID]Adjust),
	}
	merge := func(old Adjust, e Exception) Adjust {
		if e.Kind == FalsePath {
			old.False = true
			return old
		}
		if e.Cycles > old.Cycles {
			old.Cycles = e.Cycles
		}
		return old
	}
	for i, e := range c.Exceptions {
		if e.Kind == Multicycle && e.Cycles < 1 {
			return nil, fmt.Errorf("sdc: exception %d: multicycle needs Cycles >= 1, got %d", i, e.Cycles)
		}
		switch {
		case len(e.From) == 0 && len(e.To) == 0:
			return nil, fmt.Errorf("sdc: exception %d has neither -from nor -to", i)
		case len(e.From) == 0:
			for _, ep := range e.To {
				t.to.add(ep)
				t.toAny[ep] = merge(t.toAny[ep], e)
			}
		case len(e.To) == 0:
			for _, sp := range e.From {
				t.from.add(sp)
				t.fromAny[sp] = merge(t.fromAny[sp], e)
			}
		default:
			for _, sp := range e.From {
				t.from.add(sp)
				for _, ep := range e.To {
					t.to.add(ep)
					k := pairKey(sp, ep)
					t.pairs[k] = merge(t.pairs[k], e)
				}
			}
		}
	}
	return t, nil
}

// Lookup returns the combined adjustment for the (sp, ep) pair. The zero
// Adjust (False=false, Cycles=0) means "no exception"; callers should treat
// Cycles == 0 as a single-cycle check.
func (t *ExceptionTable) Lookup(sp, ep netlist.PinID) Adjust {
	var out Adjust
	inFrom, inTo := t.from.has(sp), t.to.has(ep)
	if inFrom && inTo {
		out = t.pairs[pairKey(sp, ep)]
	}
	if inFrom {
		if a, ok := t.fromAny[sp]; ok {
			out = out.with(a)
		}
	}
	if inTo {
		if a, ok := t.toAny[ep]; ok {
			out = out.with(a)
		}
	}
	return out
}

// with combines a into out: a false path stays false, the larger cycle count
// wins.
func (out Adjust) with(a Adjust) Adjust {
	out.False = out.False || a.False
	out.Cycles = max(out.Cycles, a.Cycles)
	return out
}

// Empty reports whether the table contains no exceptions at all, letting the
// propagation kernels skip per-pair lookups entirely.
func (t *ExceptionTable) Empty() bool {
	return len(t.pairs) == 0 && len(t.fromAny) == 0 && len(t.toAny) == 0
}

// CycleCount normalizes an Adjust's capture cycle count (0 → 1).
func (a Adjust) CycleCount() int {
	if a.Cycles < 1 {
		return 1
	}
	return a.Cycles
}
