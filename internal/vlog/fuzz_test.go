package vlog

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"insta/internal/netlist"
)

// FuzzReadVerilog feeds Verilog documents to Read against genDesign's
// library. Read must never panic; a document it accepts must write back
// through Write and read again to an equal design — cells, pins, nets and
// ports, and the clock tree's nodes, edges and sink bindings, every
// coordinate and delay bit for bit. The seeds are Write's own output, the
// documents TestReadRejectsGarbage rejects, one per bad pragma number of
// TestReadRejectsBadNumbers and one that places a cell pin.
func FuzzReadVerilog(f *testing.F) {
	b := genDesign(f, 1)
	var out bytes.Buffer
	if err := Write(&out, b.D, b.Lib); err != nil {
		f.Fatal(err)
	}
	f.Add(out.Bytes())
	for _, doc := range garbage {
		f.Add([]byte(doc))
	}
	for _, c := range badNumbers {
		doc, _ := c.apply(out.String())
		f.Add([]byte(doc))
	}
	// A cell pin named in a portpos line: Write places ports only.
	f.Add([]byte("module m (a, o);\n  input a;\n  output o;\n  INV_X1 u (.A(a), .Y(o));\nendmodule\n//insta:portpos u/A 1 2\n"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		d, err := Read(bytes.NewReader(doc), b.Lib)
		if err != nil {
			return
		}
		var w bytes.Buffer
		if err := Write(&w, d, b.Lib); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(w.Bytes()), b.Lib)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, w.String())
		}
		if err := sameDesign(d, back); err != nil {
			t.Fatalf("Read(Write(d)) differs from d: %v\n%s", err, w.String())
		}
	})
}

// sameDesign reports the first difference between designs a and b: name,
// ports, cells, pins, nets, or clock tree, floats compared bit for bit. Nets
// are matched by driver and named as Write names them (netRef): a net driven
// by a port, or whose one sink is an output port, is written under the port's
// name.
func sameDesign(a, b *netlist.Design) error {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case a.Name != b.Name:
		return fmt.Errorf("name %q, %q", a.Name, b.Name)
	case !reflect.DeepEqual(a.PortIns, b.PortIns) || !reflect.DeepEqual(a.PortOuts, b.PortOuts):
		return fmt.Errorf("ports %v %v, %v %v", a.PortIns, a.PortOuts, b.PortIns, b.PortOuts)
	case len(a.Cells) != len(b.Cells) || len(a.Pins) != len(b.Pins) || len(a.Nets) != len(b.Nets):
		return fmt.Errorf("%d/%d/%d cells/pins/nets, %d/%d/%d", len(a.Cells), len(a.Pins), len(a.Nets), len(b.Cells), len(b.Pins), len(b.Nets))
	}
	for i := range a.Cells {
		x, y := &a.Cells[i], &b.Cells[i]
		if x.Name != y.Name || x.LibCell != y.LibCell || x.Fixed != y.Fixed || x.Seq != y.Seq ||
			!reflect.DeepEqual(x.Pins, y.Pins) || !same(x.X, y.X) || !same(x.Y, y.Y) || !same(x.Width, y.Width) {
			return fmt.Errorf("cell %d: %+v, %+v", i, *x, *y)
		}
	}
	for i := range a.Pins {
		x, y := a.Pins[i], b.Pins[i]
		if x.Name != y.Name || x.Cell != y.Cell || x.Dir != y.Dir || x.IsClock != y.IsClock ||
			!same(x.X, y.X) || !same(x.Y, y.Y) || (x.Net == netlist.NoNet) != (y.Net == netlist.NoNet) {
			return fmt.Errorf("pin %d: %+v, %+v", i, x, y)
		}
	}
	for i := range a.Nets {
		x := &a.Nets[i]
		y := &b.Nets[b.Pins[x.Driver].Net]
		if netRef(a, netlist.NetID(i)) != netRef(b, b.Pins[x.Driver].Net) || x.Driver != y.Driver || !reflect.DeepEqual(x.Sinks, y.Sinks) {
			return fmt.Errorf("net %d: %+v, %+v", i, *x, *y)
		}
	}
	if (a.Clock == nil) != (b.Clock == nil) {
		return fmt.Errorf("clock tree %v, %v", a.Clock != nil, b.Clock != nil)
	}
	if a.Clock == nil {
		return nil
	}
	x, y := a.Clock, b.Clock
	if !reflect.DeepEqual(x.Parent, y.Parent) || !reflect.DeepEqual(x.Sinks(), y.Sinks()) || len(x.Edge) != len(y.Edge) {
		return fmt.Errorf("clock tree parents %v, %v or sinks differ", x.Parent, y.Parent)
	}
	for i := range x.Edge {
		if !same(x.Edge[i].Mean, y.Edge[i].Mean) || !same(x.Edge[i].Std, y.Edge[i].Std) {
			return fmt.Errorf("clock edge %d: %v, %v", i, x.Edge[i], y.Edge[i])
		}
	}
	return nil
}
