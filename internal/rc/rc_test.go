package rc

import (
	"math"
	"testing"
	"testing/quick"

	"insta/internal/netlist"
)

// twoSinkDesign: port a at (0,0) drives cell u1 at (10,0) and cell u2 at (0,5).
func twoSinkDesign() *netlist.Design {
	d := netlist.New("rc")
	a := d.AddPort("a", netlist.Input)
	u1 := d.AddCell("u1", 0, false)
	p1 := d.AddPin(u1, "A", netlist.Input, false)
	y1 := d.AddPin(u1, "Y", netlist.Output, false)
	u2 := d.AddCell("u2", 0, false)
	p2 := d.AddPin(u2, "A", netlist.Input, false)
	y2 := d.AddPin(u2, "Y", netlist.Output, false)
	z := d.AddPort("z", netlist.Output)
	z2 := d.AddPort("z2", netlist.Output)
	n := d.AddNet("n", a)
	d.Connect(n, p1, p2)
	d.Connect(d.AddNet("n1", y1), z)
	d.Connect(d.AddNet("n2", y2), z2)
	d.Cells[u1].X, d.Cells[u1].Y = 10, 0
	d.Cells[u2].X, d.Cells[u2].Y = 0, 5
	return d
}

func TestFromPlacementLengths(t *testing.T) {
	d := twoSinkDesign()
	p := DefaultParams()
	par := FromPlacement(d, p)
	if err := par.Validate(d); err != nil {
		t.Fatal(err)
	}
	b := par.Nets[0].Branch
	if math.Abs(b[0].Len-(10+p.MinLen)) > 1e-12 {
		t.Errorf("branch 0 len = %v, want %v", b[0].Len, 10+p.MinLen)
	}
	if math.Abs(b[1].Len-(5+p.MinLen)) > 1e-12 {
		t.Errorf("branch 1 len = %v, want %v", b[1].Len, 5+p.MinLen)
	}
	if b[0].R != p.RPerUnit*b[0].Len || b[0].C != p.CPerUnit*b[0].Len {
		t.Error("R/C not proportional to length")
	}
}

func TestRebuildNetTracksMovement(t *testing.T) {
	d := twoSinkDesign()
	par := FromPlacement(d, DefaultParams())
	before := par.Nets[0].Branch[0].Len
	d.Cells[0].X = 100 // move u1 far away
	par.RebuildNet(d, 0)
	after := par.Nets[0].Branch[0].Len
	if after <= before {
		t.Errorf("branch length did not grow after move: %v -> %v", before, after)
	}
	if err := par.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestBranchDelayElmore(t *testing.T) {
	d := twoSinkDesign()
	p := DefaultParams()
	par := FromPlacement(d, p)
	b := par.Nets[0].Branch[0]
	pinCap := 1.5
	got := par.BranchDelay(0, 0, pinCap)
	wantMean := b.R * (b.C/2 + pinCap)
	if math.Abs(got.Mean-wantMean) > 1e-12 {
		t.Errorf("Elmore mean = %v, want %v", got.Mean, wantMean)
	}
	if math.Abs(got.Std-p.WireSigmaFrac*wantMean) > 1e-12 {
		t.Errorf("sigma = %v, want %v", got.Std, p.WireSigmaFrac*wantMean)
	}
}

func TestBranchDelayMonotoneInCap(t *testing.T) {
	d := twoSinkDesign()
	par := FromPlacement(d, DefaultParams())
	f := func(c1Raw, c2Raw float64) bool {
		c1 := math.Abs(math.Mod(c1Raw, 50))
		c2 := c1 + math.Abs(math.Mod(c2Raw, 10))
		return par.BranchDelay(0, 0, c2).Mean >= par.BranchDelay(0, 0, c1).Mean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegradeSlew(t *testing.T) {
	par := FromPlacement(twoSinkDesign(), DefaultParams())
	if got := par.DegradeSlew(10, 0); got != 10 {
		t.Errorf("zero wire delay should keep slew: %v", got)
	}
	got := par.DegradeSlew(3, 2) // hypot(3, 2.2*2) = hypot(3,4.4)
	want := math.Hypot(3, 4.4)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DegradeSlew = %v, want %v", got, want)
	}
	if par.DegradeSlew(10, 5) < 10 {
		t.Error("degraded slew below driver slew")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	d := twoSinkDesign()
	par := FromPlacement(d, DefaultParams())
	par.Nets[0].Branch = par.Nets[0].Branch[:1]
	if err := par.Validate(d); err == nil {
		t.Error("Validate accepted branch/sink mismatch")
	}
	par = FromPlacement(d, DefaultParams())
	par.Nets = par.Nets[:1]
	if err := par.Validate(d); err == nil {
		t.Error("Validate accepted net count mismatch")
	}
}

func TestWireCap(t *testing.T) {
	d := twoSinkDesign()
	p := DefaultParams()
	par := FromPlacement(d, p)
	var want float64
	for _, b := range par.Nets[0].Branch {
		want += b.C
	}
	if got := par.Nets[0].WireCap(); math.Abs(got-want) > 1e-12 {
		t.Errorf("WireCap = %v, want %v", got, want)
	}
}
