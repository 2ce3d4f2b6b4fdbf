package netlist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"insta/internal/num"
)

// buildTiny builds: port a -> inv u1 -> port z, plus a DFF u2 clocked by a
// 2-node clock tree.
func buildTiny(t *testing.T) *Design {
	t.Helper()
	d := New("tiny")
	a := d.AddPort("a", Input)
	z := d.AddPort("z", Output)

	u1 := d.AddCell("u1", 0, false)
	u1a := d.AddPin(u1, "A", Input, false)
	u1y := d.AddPin(u1, "Y", Output, false)

	u2 := d.AddCell("u2", 1, true)
	u2d := d.AddPin(u2, "D", Input, false)
	u2cp := d.AddPin(u2, "CP", Input, true)
	u2q := d.AddPin(u2, "Q", Output, false)

	n1 := d.AddNet("n1", a)
	d.Connect(n1, u1a)
	n2 := d.AddNet("n2", u1y)
	d.Connect(n2, u2d)
	n3 := d.AddNet("n3", u2q)
	d.Connect(n3, z)

	ct := NewClockTree(num.Dist{Mean: 10, Std: 1})
	leaf := ct.AddNode(ct.Root(), num.Dist{Mean: 20, Std: 2})
	ct.BindSink(u2cp, leaf)
	if err := ct.Finalize(); err != nil {
		t.Fatal(err)
	}
	d.Clock = ct
	return d
}

func TestBuildAndValidate(t *testing.T) {
	d := buildTiny(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.NumCells() != 2 || d.NumPins() != 7 {
		t.Errorf("counts: cells=%d pins=%d", d.NumCells(), d.NumPins())
	}
}

func TestNameLookups(t *testing.T) {
	d := buildTiny(t)
	p, ok := d.PinByName("u1/A")
	if !ok {
		t.Fatal("u1/A not found")
	}
	if d.LocalPinName(p) != "A" {
		t.Errorf("LocalPinName = %q, want A", d.LocalPinName(p))
	}
	if _, ok := d.PinByName("nope"); ok {
		t.Error("found nonexistent pin")
	}
	c, ok := d.CellByName("u2")
	if !ok {
		t.Fatal("u2 not found")
	}
	if got := d.CellPin(c, "Q"); got == NoPin {
		t.Error("CellPin(u2, Q) = NoPin")
	}
	if got := d.CellPin(c, "ZZ"); got != NoPin {
		t.Errorf("CellPin(u2, ZZ) = %d, want NoPin", got)
	}
	port, _ := d.PinByName("a")
	if d.LocalPinName(port) != "a" {
		t.Errorf("port LocalPinName = %q", d.LocalPinName(port))
	}
}

func TestValidateCatchesUnconnected(t *testing.T) {
	d := New("bad")
	c := d.AddCell("u1", 0, false)
	d.AddPin(c, "A", Input, false)
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Errorf("want unconnected error, got %v", err)
	}
}

func TestValidateCatchesBadDriver(t *testing.T) {
	d := New("bad")
	c := d.AddCell("u1", 0, false)
	in := d.AddPin(c, "A", Input, false)
	// Driving a net from an input cell pin is illegal.
	d.AddNet("n", in)
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "not a source") {
		t.Errorf("want driver error, got %v", err)
	}
}

func TestValidateCatchesClockPinWithoutTree(t *testing.T) {
	d := New("bad")
	c := d.AddCell("ff", 0, true)
	d.AddPin(c, "CP", Input, true)
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "clock") {
		t.Errorf("want clock error, got %v", err)
	}
}

func TestClockTreeArrival(t *testing.T) {
	ct := NewClockTree(num.Dist{Mean: 10, Std: 3})
	a := ct.AddNode(ct.Root(), num.Dist{Mean: 5, Std: 4})
	if err := ct.Finalize(); err != nil {
		t.Fatal(err)
	}
	arr := ct.Arrival(a)
	if arr.Mean != 15 {
		t.Errorf("mean = %v, want 15", arr.Mean)
	}
	if math.Abs(arr.Std-5) > 1e-12 {
		t.Errorf("std = %v, want 5", arr.Std)
	}
}

func TestClockTreeLCAAndCommonVar(t *testing.T) {
	//        root(σ=1)
	//        /      \
	//      a(σ=2)   b(σ=2)
	//      /   \
	//    a1     a2
	ct := NewClockTree(num.Dist{Mean: 0, Std: 1})
	a := ct.AddNode(ct.Root(), num.Dist{Mean: 1, Std: 2})
	b := ct.AddNode(ct.Root(), num.Dist{Mean: 1, Std: 2})
	a1 := ct.AddNode(a, num.Dist{Mean: 1, Std: 1})
	a2 := ct.AddNode(a, num.Dist{Mean: 1, Std: 1})
	if err := ct.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := ct.LCA(a1, a2); got != a {
		t.Errorf("LCA(a1,a2) = %d, want %d", got, a)
	}
	if got := ct.LCA(a1, b); got != ct.Root() {
		t.Errorf("LCA(a1,b) = %d, want root", got)
	}
	if got := ct.LCA(a1, a1); got != a1 {
		t.Errorf("LCA(a1,a1) = %d, want a1", got)
	}
	// Common var a1/a2 = root var + a edge var = 1 + 4 = 5.
	if got := ct.CommonVar(a1, a2); got != 5 {
		t.Errorf("CommonVar(a1,a2) = %v, want 5", got)
	}
	// Common var across branches = root var only.
	if got := ct.CommonVar(a1, b); got != 1 {
		t.Errorf("CommonVar(a1,b) = %v, want 1", got)
	}
	// Self common var = full path var.
	if got := ct.CommonVar(a1, a1); got != 6 {
		t.Errorf("CommonVar(a1,a1) = %v, want 6", got)
	}
}

func TestClockTreeCommonVarSymmetric(t *testing.T) {
	ct := NewClockTree(num.Dist{Std: 1})
	var nodes []int32
	nodes = append(nodes, ct.Root())
	for i := 0; i < 20; i++ {
		parent := nodes[i/2]
		nodes = append(nodes, ct.AddNode(parent, num.Dist{Mean: 1, Std: 0.5}))
	}
	if err := ct.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if ct.CommonVar(a, b) != ct.CommonVar(b, a) {
				t.Fatalf("CommonVar not symmetric for %d,%d", a, b)
			}
			// Shared variance can never exceed either full path variance.
			full := ct.CommonVar(a, a)
			if ct.CommonVar(a, b) > full+1e-12 {
				t.Fatalf("CommonVar(%d,%d) exceeds own path var", a, b)
			}
		}
	}
}

func TestClockTreeFinalizeRejectsForwardParent(t *testing.T) {
	ct := NewClockTree(num.Dist{})
	// Manually corrupt: node whose parent comes after it.
	ct.Parent = append(ct.Parent, 5)
	ct.Edge = append(ct.Edge, num.Dist{})
	if err := ct.Finalize(); err == nil {
		t.Error("Finalize accepted invalid parent ordering")
	}
}

func TestClockTreePanicsBeforeFinalize(t *testing.T) {
	ct := NewClockTree(num.Dist{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic when using unfinalized tree")
		}
	}()
	ct.Arrival(0)
}

func TestClockTreeSinks(t *testing.T) {
	d := buildTiny(t)
	sinks := d.Clock.Sinks()
	if len(sinks) != 1 {
		t.Fatalf("sinks = %v, want 1 entry", sinks)
	}
	cp, _ := d.PinByName("u2/CP")
	if _, ok := d.Clock.SinkOf(cp); !ok {
		t.Error("SinkOf(u2/CP) missing")
	}
}

// TestCellPinIsTheNameLookup holds CellPin, which scans the cell's pins, to
// what PinByName answers for "<cell>/<pin>" — the last pin or port given a
// name winning — for every cell and every local name any pin of the design
// has, plus one no pin has: on a design whose names never repeat, then after
// each of the ways a full name can be taken twice (two cells of one name, a
// slash in a cell or pin name, a port named like a cell pin, one pin name
// added twice to a cell).
func TestCellPinIsTheNameLookup(t *testing.T) {
	d := New("names")
	for i := 0; i < 40; i++ {
		c := d.AddCell(fmt.Sprintf("u%d", i), 0, false)
		for _, p := range []string{"A", "B", "Y"}[:1+i%3] {
			d.AddPin(c, p, Input, false)
		}
	}
	d.AddPort("in0", Input)
	check := func(what string) {
		t.Helper()
		locals := map[string]bool{"none": true}
		for p := range d.Pins {
			locals[d.LocalPinName(PinID(p))] = true
			if i := strings.LastIndexByte(d.Pins[p].Name, '/'); i >= 0 {
				locals[d.Pins[p].Name[i+1:]] = true
			}
		}
		for c := range d.Cells {
			for l := range locals {
				want, ok := d.PinByName(d.Cells[c].Name + "/" + l)
				if !ok {
					want = NoPin
				}
				if got := d.CellPin(CellID(c), l); got != want {
					t.Fatalf("%s: CellPin(%s, %q) = %d, the name lookup says %d", what, d.Cells[c].Name, l, got, want)
				}
			}
		}
	}
	check("unique names")
	steps := []struct {
		what string
		add  func()
	}{
		{"a port named like a cell pin", func() { d.AddPort("u3/Q", Output) }},
		{"a slash in a pin name", func() { d.AddPin(d.AddCell("w", 0, false), "x/A", Input, false) }},
		{"a slash in a cell name", func() { d.AddPin(d.AddCell("w/x", 0, false), "A", Input, false) }},
		{"two cells of one name", func() { d.AddPin(d.AddCell("u5", 0, false), "A", Input, false) }},
		{"one pin name added twice", func() { d.AddPin(7, "A", Output, false) }},
	}
	for _, s := range steps {
		s.add()
		check(s.what)
	}
	if !d.reusedPinName {
		t.Fatal("no step reused a pin name: the map path went untested")
	}
}
