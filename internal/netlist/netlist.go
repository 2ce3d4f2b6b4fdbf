// Package netlist defines the gate-level design model shared by the reference
// STA engine, the INSTA core, the sizer, and the placer: cells, pins, nets,
// top-level ports, placement coordinates, and the clock distribution tree used
// for CPPR common-path analysis.
//
// The package deliberately does not import the liberty package; cells refer to
// library cells by integer id so that a library can be swapped (gate sizing)
// without touching the netlist structure.
package netlist

import (
	"fmt"
	"math"

	"insta/internal/num"
)

// CellID, PinID and NetID index into Design.Cells, Design.Pins and
// Design.Nets. NoCell/NoNet mark absent references.
type (
	CellID int32
	PinID  int32
	NetID  int32
)

// Sentinel ids for absent references.
const (
	NoCell CellID = -1
	NoNet  NetID  = -1
	NoPin  PinID  = -1
)

// PinDir is the signal direction of a pin as seen from its cell (or, for a
// top-level port, from the design: an Input port drives logic).
type PinDir uint8

// Pin directions.
const (
	Input PinDir = iota
	Output
)

func (d PinDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Cell is one placed instance of a library cell.
type Cell struct {
	Name    string
	LibCell int32 // index into the liberty.Library used with this design
	Pins    []PinID
	X, Y    float64 // lower-left placement coordinate, in site units
	Width   float64 // footprint width in site units (height is one row)
	Fixed   bool    // placement-fixed (macros, pads)
	Seq     bool    // sequential (flip-flop)
}

// Pin is a cell pin or a top-level port (Cell == NoCell).
type Pin struct {
	Name    string // hierarchical name, e.g. "u42/A" or port name
	Cell    CellID
	Net     NetID
	Dir     PinDir
	IsClock bool    // flip-flop clock input, fed by the clock tree
	X, Y    float64 // port location; cell pins use their cell's location
}

// Net connects one driver pin to its sink pins.
type Net struct {
	Name   string
	Driver PinID
	Sinks  []PinID
}

// Design is a flattened gate-level netlist.
type Design struct {
	Name  string
	Cells []Cell
	Pins  []Pin
	Nets  []Net

	// PortIns/PortOuts list the top-level port pins (Cell == NoCell).
	PortIns  []PinID
	PortOuts []PinID

	// Clock is the clock distribution tree (nil for purely combinational
	// designs). It is modelled structurally, outside the data netlist, the
	// way a signoff tool reports propagated clock network latency.
	Clock *ClockTree

	pinByName  map[string]PinID
	cellByName map[string]CellID
}

// New returns an empty design named name.
func New(name string) *Design {
	return &Design{
		Name:       name,
		pinByName:  make(map[string]PinID),
		cellByName: make(map[string]CellID),
	}
}

// NumPins returns the total pin count (cell pins + ports).
func (d *Design) NumPins() int { return len(d.Pins) }

// NumCells returns the cell instance count.
func (d *Design) NumCells() int { return len(d.Cells) }

// AddCell appends a cell instance bound to library cell libCell.
func (d *Design) AddCell(name string, libCell int32, seq bool) CellID {
	id := CellID(len(d.Cells))
	d.Cells = append(d.Cells, Cell{Name: name, LibCell: libCell, Seq: seq, Width: 1})
	d.cellByName[name] = id
	return id
}

// AddPin appends a pin named pinName to cell c. The full pin name is
// "<cell>/<pin>".
func (d *Design) AddPin(c CellID, pinName string, dir PinDir, isClock bool) PinID {
	id := PinID(len(d.Pins))
	full := d.Cells[c].Name + "/" + pinName
	d.Pins = append(d.Pins, Pin{Name: full, Cell: c, Net: NoNet, Dir: dir, IsClock: isClock})
	d.Cells[c].Pins = append(d.Cells[c].Pins, id)
	d.pinByName[full] = id
	return id
}

// AddPort appends a top-level port pin. dir is the direction seen from the
// design core: an Input port drives internal logic (acts like a driver pin).
func (d *Design) AddPort(name string, dir PinDir) PinID {
	id := PinID(len(d.Pins))
	d.Pins = append(d.Pins, Pin{Name: name, Cell: NoCell, Net: NoNet, Dir: dir})
	d.pinByName[name] = id
	if dir == Input {
		d.PortIns = append(d.PortIns, id)
	} else {
		d.PortOuts = append(d.PortOuts, id)
	}
	return id
}

// AddNet appends a net driven by driver. Sinks are attached with Connect.
func (d *Design) AddNet(name string, driver PinID) NetID {
	id := NetID(len(d.Nets))
	d.Nets = append(d.Nets, Net{Name: name, Driver: driver})
	d.Pins[driver].Net = id
	return id
}

// Connect attaches sink pins to net n.
func (d *Design) Connect(n NetID, sinks ...PinID) {
	d.Nets[n].Sinks = append(d.Nets[n].Sinks, sinks...)
	for _, s := range sinks {
		d.Pins[s].Net = n
	}
}

// PinPos returns the physical location of pin p: its cell's placement
// coordinate, or the port's own coordinate for top-level pins. Pin offsets
// within a cell are ignored (cells are small relative to wire spans).
func (d *Design) PinPos(p PinID) (x, y float64) {
	pin := d.Pins[p]
	if pin.Cell == NoCell {
		return pin.X, pin.Y
	}
	c := &d.Cells[pin.Cell]
	return c.X, c.Y
}

// PinByName resolves a full pin or port name; ok reports whether it exists.
func (d *Design) PinByName(name string) (PinID, bool) {
	id, ok := d.pinByName[name]
	return id, ok
}

// CellByName resolves a cell instance name; ok reports whether it exists.
func (d *Design) CellByName(name string) (CellID, bool) {
	id, ok := d.cellByName[name]
	return id, ok
}

// CellPin returns cell c's pin whose local (post-slash) name is pinName, or
// NoPin when absent.
func (d *Design) CellPin(c CellID, pinName string) PinID {
	full := d.Cells[c].Name + "/" + pinName
	if id, ok := d.pinByName[full]; ok {
		return id
	}
	return NoPin
}

// LocalPinName strips the cell prefix from pin p's full name. Port names are
// returned unchanged.
func (d *Design) LocalPinName(p PinID) string {
	pin := d.Pins[p]
	if pin.Cell == NoCell {
		return pin.Name
	}
	prefix := d.Cells[pin.Cell].Name + "/"
	return pin.Name[len(prefix):]
}

// Validate checks structural integrity: every net has a driver with Output
// direction (or an Input port), every sink is an Input pin (or Output port),
// every non-clock pin is connected, and pin/cell back-references agree.
func (d *Design) Validate() error {
	for i, c := range d.Cells {
		for _, p := range c.Pins {
			if d.Pins[p].Cell != CellID(i) {
				return fmt.Errorf("netlist: cell %q pin %d back-reference mismatch", c.Name, p)
			}
		}
	}
	for i, n := range d.Nets {
		if n.Driver == NoPin {
			return fmt.Errorf("netlist: net %q has no driver", n.Name)
		}
		drv := d.Pins[n.Driver]
		drvIsSource := (drv.Cell != NoCell && drv.Dir == Output) || (drv.Cell == NoCell && drv.Dir == Input)
		if !drvIsSource {
			return fmt.Errorf("netlist: net %q driver %q is not a source pin", n.Name, drv.Name)
		}
		if drv.Net != NetID(i) {
			return fmt.Errorf("netlist: net %q driver back-reference mismatch", n.Name)
		}
		for _, s := range n.Sinks {
			sp := d.Pins[s]
			sinkIsLoad := (sp.Cell != NoCell && sp.Dir == Input) || (sp.Cell == NoCell && sp.Dir == Output)
			if !sinkIsLoad {
				return fmt.Errorf("netlist: net %q sink %q is not a load pin", n.Name, sp.Name)
			}
			if sp.Net != NetID(i) {
				return fmt.Errorf("netlist: net %q sink %q back-reference mismatch", n.Name, sp.Name)
			}
		}
	}
	for i, p := range d.Pins {
		if p.IsClock {
			if d.Clock == nil {
				return fmt.Errorf("netlist: clock pin %q but design has no clock tree", p.Name)
			}
			if _, ok := d.Clock.SinkOf(PinID(i)); !ok {
				return fmt.Errorf("netlist: clock pin %q not bound to a clock-tree sink", p.Name)
			}
			continue
		}
		if p.Net == NoNet {
			return fmt.Errorf("netlist: pin %q is unconnected", p.Name)
		}
	}
	return nil
}

// ClockTree models the propagated clock network: a rooted tree whose edges
// carry POCV delay distributions. Flip-flop clock pins bind to leaves. CPPR
// common-path credit between a launch and a capture sink is derived from the
// accumulated variance on the shared root→LCA segment.
type ClockTree struct {
	Parent []int32    // Parent[i] is i's parent node; root (node 0) has -1
	Edge   []num.Dist // Edge[i] is the delay from Parent[i] to i; Edge[0] is source latency

	depth     []int32
	cumMean   []float64 // root→node inclusive mean
	cumVar    []float64 // root→node inclusive variance
	sinkOfPin map[PinID]int32
	finalized bool
}

// NewClockTree creates a tree containing only the root with the given source
// insertion delay.
func NewClockTree(sourceLatency num.Dist) *ClockTree {
	return &ClockTree{
		Parent:    []int32{-1},
		Edge:      []num.Dist{sourceLatency},
		sinkOfPin: make(map[PinID]int32),
	}
}

// AddNode appends a node under parent with the given edge delay and returns
// its id.
func (t *ClockTree) AddNode(parent int32, edge num.Dist) int32 {
	id := int32(len(t.Parent))
	t.Parent = append(t.Parent, parent)
	t.Edge = append(t.Edge, edge)
	t.finalized = false
	return id
}

// BindSink associates flip-flop clock pin p with tree node n.
func (t *ClockTree) BindSink(p PinID, n int32) {
	t.sinkOfPin[p] = n
	t.finalized = false
}

// Root returns the root node id (always 0).
func (t *ClockTree) Root() int32 { return 0 }

// SinkOf returns the tree node bound to clock pin p.
func (t *ClockTree) SinkOf(p PinID) (int32, bool) {
	n, ok := t.sinkOfPin[p]
	return n, ok
}

// Sinks returns a copy of the pin→node bindings.
func (t *ClockTree) Sinks() map[PinID]int32 {
	out := make(map[PinID]int32, len(t.sinkOfPin))
	for k, v := range t.sinkOfPin {
		out[k] = v
	}
	return out
}

// Finalize computes depths and cumulative root→node statistics. It must be
// called after construction and before Arrival/CommonVar/LCA.
func (t *ClockTree) Finalize() error {
	n := len(t.Parent)
	t.depth = make([]int32, n)
	t.cumMean = make([]float64, n)
	t.cumVar = make([]float64, n)
	for i := 0; i < n; i++ {
		p := t.Parent[i]
		if i == 0 {
			if p != -1 {
				return fmt.Errorf("netlist: clock tree root must have parent -1, got %d", p)
			}
			t.depth[0] = 0
			t.cumMean[0] = t.Edge[0].Mean
			t.cumVar[0] = t.Edge[0].Std * t.Edge[0].Std
			continue
		}
		if p < 0 || int(p) >= i {
			return fmt.Errorf("netlist: clock tree node %d has invalid parent %d (parents must precede children)", i, p)
		}
		t.depth[i] = t.depth[p] + 1
		t.cumMean[i] = t.cumMean[p] + t.Edge[i].Mean
		t.cumVar[i] = t.cumVar[p] + t.Edge[i].Std*t.Edge[i].Std
	}
	t.finalized = true
	return nil
}

// Arrival returns the propagated clock arrival distribution at node n
// (root source latency included).
func (t *ClockTree) Arrival(n int32) num.Dist {
	t.mustFinal()
	return num.Dist{Mean: t.cumMean[n], Std: sqrt(t.cumVar[n])}
}

// LCA returns the lowest common ancestor of nodes a and b.
func (t *ClockTree) LCA(a, b int32) int32 {
	t.mustFinal()
	for t.depth[a] > t.depth[b] {
		a = t.Parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.Parent[b]
	}
	for a != b {
		a = t.Parent[a]
		b = t.Parent[b]
	}
	return a
}

// CommonVar returns the clock-path variance shared by launch sink a and
// capture sink b: the accumulated variance from the root through LCA(a, b).
func (t *ClockTree) CommonVar(a, b int32) float64 {
	return t.cumVar[t.LCA(a, b)]
}

// NumNodes returns the node count of the tree.
func (t *ClockTree) NumNodes() int { return len(t.Parent) }

func (t *ClockTree) mustFinal() {
	if !t.finalized {
		panic("netlist: ClockTree used before Finalize")
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
