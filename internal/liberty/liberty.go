// Package liberty models the standard-cell timing library consumed by the
// reference STA engine: NLDM-style two-dimensional delay and output-slew
// tables indexed by (input slew, output load), per-arc POCV sigma tables,
// unateness, pin capacitances, drive-strength footprints for gate sizing, and
// flip-flop setup constraints.
//
// Units follow the usual signoff convention at advanced nodes: time in
// picoseconds (ps), capacitance in femtofarads (fF), resistance in ps/fF.
package liberty

import (
	"fmt"
	"math"
	"sort"

	"insta/internal/num"
)

// Rise and Fall index the two signal transitions throughout the code base.
const (
	Rise = 0
	Fall = 1
)

// RFName returns "rise" or "fall" for transition index rf.
func RFName(rf int) string {
	if rf == Rise {
		return "rise"
	}
	return "fall"
}

// Unate is the timing sense of a cell arc.
type Unate uint8

// Timing senses. A positive-unate arc propagates rise→rise/fall→fall; a
// negative-unate arc inverts; a non-unate arc (e.g. XOR) propagates both
// input transitions to each output transition.
const (
	PositiveUnate Unate = iota
	NegativeUnate
	NonUnate
)

func (u Unate) String() string {
	switch u {
	case PositiveUnate:
		return "positive_unate"
	case NegativeUnate:
		return "negative_unate"
	default:
		return "non_unate"
	}
}

// InRFs reports which input transitions can cause output transition outRF
// through an arc of sense u: the same transition for positive unate, the
// opposite for negative unate, and both for non-unate arcs. It returns the
// transitions in rfs[:n].
func (u Unate) InRFs(outRF int) (rfs [2]int, n int) {
	switch u {
	case PositiveUnate:
		return [2]int{outRF, 0}, 1
	case NegativeUnate:
		return [2]int{1 - outRF, 0}, 1
	default:
		return [2]int{Rise, Fall}, 2
	}
}

// Table is an NLDM lookup table sampled on (input slew, output load).
type Table struct {
	Slew []float64   // input transition axis, ps
	Load []float64   // output capacitance axis, fF
	Val  [][]float64 // Val[i][j] at Slew[i], Load[j]
}

// Lookup bilinearly interpolates the table at (slew, load), extrapolating at
// the edges as NLDM tools do.
func (t *Table) Lookup(slew, load float64) float64 {
	return num.Bilinear(t.Slew, t.Load, t.Val, slew, load)
}

// Arc is one timing arc of a cell, from input pin From to output pin To.
// Delay, OutSlew and Sigma are indexed by the *output* transition.
type Arc struct {
	From, To string
	Sense    Unate
	Delay    [2]Table // output rise / fall delay, ps
	OutSlew  [2]Table // output transition, ps
	Sigma    [2]Table // POCV delay sigma, ps
}

// Cell is one library cell (a specific drive strength of a footprint).
type Cell struct {
	Name      string
	Footprint string  // logical function group, e.g. "NAND2"; shared pin names
	Drive     int     // position within the footprint's drive ladder (0 = weakest)
	Area      float64 // placement area, site units
	Leakage   float64 // leakage power, arbitrary units (used by sizing flows)
	PinCap    map[string]float64
	Inputs    []string
	Outputs   []string
	Arcs      []Arc

	// Sequential attributes (Seq cells only).
	Seq      bool
	ClockPin string
	DataPin  string
	OutPin   string
	Setup    [2]float64 // setup requirement for D rise/fall, ps
	Hold     [2]float64 // hold requirement for D rise/fall, ps
}

// FindArc returns the arc from input pin from to output pin to, or nil.
func (c *Cell) FindArc(from, to string) *Arc {
	for i := range c.Arcs {
		if c.Arcs[i].From == from && c.Arcs[i].To == to {
			return &c.Arcs[i]
		}
	}
	return nil
}

// Library is a set of cells grouped into footprints for sizing.
type Library struct {
	Name       string
	Cells      []*Cell
	Footprints map[string][]int32 // footprint -> cell ids ordered by Drive

	byName map[string]int32
}

// Cell returns the library cell with the given id.
func (l *Library) Cell(id int32) *Cell { return l.Cells[id] }

// CellByName resolves a cell name; ok reports existence.
func (l *Library) CellByName(name string) (int32, bool) {
	id, ok := l.byName[name]
	return id, ok
}

// Siblings returns all drive variants of cell id's footprint, ordered by
// drive strength (id itself included).
func (l *Library) Siblings(id int32) []int32 {
	return l.Footprints[l.Cells[id].Footprint]
}

// Resize returns the cell id at drive position (current + delta) within id's
// footprint, clamped to the ladder ends. ok reports whether the result
// differs from id.
func (l *Library) Resize(id int32, delta int) (int32, bool) {
	ladder := l.Siblings(id)
	pos := l.Cells[id].Drive + delta
	if pos < 0 {
		pos = 0
	}
	if pos >= len(ladder) {
		pos = len(ladder) - 1
	}
	out := ladder[pos]
	return out, out != id
}

// add registers a cell, assigning footprint/drive bookkeeping.
func (l *Library) add(c *Cell) int32 {
	id := int32(len(l.Cells))
	l.Cells = append(l.Cells, c)
	l.byName[c.Name] = id
	l.Footprints[c.Footprint] = append(l.Footprints[c.Footprint], id)
	return id
}

// Validate checks internal consistency: arcs reference declared pins, tables
// are rectangular with increasing axes, and footprint drive ladders agree on
// pin names.
func (l *Library) Validate() error {
	for _, c := range l.Cells {
		pins := map[string]bool{}
		for _, p := range c.Inputs {
			pins[p] = true
		}
		for _, p := range c.Outputs {
			pins[p] = true
		}
		for i := range c.Arcs {
			a := &c.Arcs[i]
			if !pins[a.From] || !pins[a.To] {
				return fmt.Errorf("liberty: cell %s arc %s->%s references undeclared pin", c.Name, a.From, a.To)
			}
			for rf := 0; rf < 2; rf++ {
				for _, tb := range []*Table{&a.Delay[rf], &a.OutSlew[rf], &a.Sigma[rf]} {
					if err := checkTable(tb); err != nil {
						return fmt.Errorf("liberty: cell %s arc %s->%s: %w", c.Name, a.From, a.To, err)
					}
				}
			}
		}
		for _, p := range c.Inputs {
			if _, ok := c.PinCap[p]; !ok {
				return fmt.Errorf("liberty: cell %s input %s has no pin cap", c.Name, p)
			}
		}
	}
	for fp, ladder := range l.Footprints {
		for i, id := range ladder {
			if l.Cells[id].Drive != i {
				return fmt.Errorf("liberty: footprint %s ladder out of order at %d", fp, i)
			}
			if i > 0 && len(l.Cells[id].Inputs) != len(l.Cells[ladder[0]].Inputs) {
				return fmt.Errorf("liberty: footprint %s drive variants disagree on pins", fp)
			}
		}
	}
	return nil
}

func checkTable(t *Table) error {
	if len(t.Val) != len(t.Slew) {
		return fmt.Errorf("table rows %d != slew axis %d", len(t.Val), len(t.Slew))
	}
	for i, row := range t.Val {
		if len(row) != len(t.Load) {
			return fmt.Errorf("table row %d has %d cols, want %d", i, len(row), len(t.Load))
		}
	}
	for _, axis := range []struct {
		name string
		v    []float64
	}{{"slew", t.Slew}, {"load", t.Load}} {
		for i, x := range axis.v {
			if math.IsNaN(x) {
				return fmt.Errorf("%s axis holds NaN at %d", axis.name, i)
			}
			if i > 0 && x <= axis.v[i-1] {
				return fmt.Errorf("%s axis not increasing at %d", axis.name, i)
			}
		}
	}
	return nil
}

// Rebuild constructs a Library from parsed cells (the libertyio reader's
// entry point): cells are grouped by footprint and each ladder is ordered by
// area — the natural drive ordering, since stronger drives are strictly
// larger — with Drive indices assigned accordingly.
func Rebuild(name string, cells []*Cell) *Library {
	lib := &Library{
		Name:       name,
		Footprints: make(map[string][]int32),
		byName:     make(map[string]int32),
	}
	byFootprint := map[string][]*Cell{}
	var order []string
	for _, c := range cells {
		if _, seen := byFootprint[c.Footprint]; !seen {
			order = append(order, c.Footprint)
		}
		byFootprint[c.Footprint] = append(byFootprint[c.Footprint], c)
	}
	for _, fp := range order {
		ladder := byFootprint[fp]
		sort.SliceStable(ladder, func(a, b int) bool { return ladder[a].Area < ladder[b].Area })
		for i, c := range ladder {
			c.Drive = i
			lib.add(c)
		}
	}
	return lib
}
