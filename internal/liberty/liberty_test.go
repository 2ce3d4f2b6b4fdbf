package liberty

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSyntheticLibrariesValidate(t *testing.T) {
	for _, tech := range []Tech{TechN3(), TechASAP7()} {
		lib := NewSynthetic(tech)
		if err := lib.Validate(); err != nil {
			t.Errorf("%s: %v", tech.Name, err)
		}
		// 6 combinational footprints + DFF, each at len(Drives) strengths.
		want := (len(combFootprints) + 1) * len(tech.Drives)
		if len(lib.Cells) != want {
			t.Errorf("%s: %d cells, want %d", tech.Name, len(lib.Cells), want)
		}
	}
}

func TestCellByNameAndFindArc(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, ok := lib.CellByName("NAND2_X2")
	if !ok {
		t.Fatal("NAND2_X2 missing")
	}
	c := lib.Cell(id)
	if c.Footprint != "NAND2" || c.Drive != 1 {
		t.Errorf("NAND2_X2: footprint=%s drive=%d", c.Footprint, c.Drive)
	}
	if a := c.FindArc("A", "Y"); a == nil {
		t.Error("arc A->Y missing")
	} else if a.Sense != NegativeUnate {
		t.Errorf("NAND2 sense = %v", a.Sense)
	}
	if a := c.FindArc("Y", "A"); a != nil {
		t.Error("reverse arc should not exist")
	}
	if _, ok := lib.CellByName("MISSING_X9"); ok {
		t.Error("found nonexistent cell")
	}
}

func TestXORIsNonUnateAndDFFIsSeq(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, _ := lib.CellByName("XOR2_X1")
	if lib.Cell(id).Arcs[0].Sense != NonUnate {
		t.Error("XOR2 should be non-unate")
	}
	id, ok := lib.CellByName("DFF_X1")
	if !ok {
		t.Fatal("DFF_X1 missing")
	}
	ff := lib.Cell(id)
	if !ff.Seq || ff.ClockPin != "CP" || ff.DataPin != "D" || ff.OutPin != "Q" {
		t.Errorf("DFF attributes wrong: %+v", ff)
	}
	if ff.Setup[Rise] <= 0 || ff.Setup[Fall] <= ff.Setup[Rise]-1e-12 {
		t.Errorf("DFF setup = %v", ff.Setup)
	}
	if a := ff.FindArc("CP", "Q"); a == nil || a.Sense != PositiveUnate {
		t.Error("DFF CP->Q arc missing or wrong sense")
	}
}

func TestResizeLadder(t *testing.T) {
	lib := NewSynthetic(TechN3())
	x1, _ := lib.CellByName("INV_X1")
	x8, _ := lib.CellByName("INV_X8")

	up, ok := lib.Resize(x1, 1)
	if !ok || lib.Cell(up).Name != "INV_X2" {
		t.Errorf("Resize(X1,+1) = %s ok=%v", lib.Cell(up).Name, ok)
	}
	// Clamp at top.
	top, ok := lib.Resize(x8, 5)
	if ok || top != x8 {
		t.Errorf("Resize(X8,+5) should clamp to itself, got %s ok=%v", lib.Cell(top).Name, ok)
	}
	// Clamp at bottom.
	bot, ok := lib.Resize(x1, -3)
	if ok || bot != x1 {
		t.Errorf("Resize(X1,-3) should clamp to itself, got %s ok=%v", lib.Cell(bot).Name, ok)
	}
	if got := len(lib.Siblings(x1)); got != 4 {
		t.Errorf("INV ladder size = %d, want 4", got)
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, _ := lib.CellByName("INV_X1")
	a := lib.Cell(id).FindArc("A", "Y")
	f := func(slewRaw, l1Raw, l2Raw float64) bool {
		slew := 2 + math.Mod(math.Abs(slewRaw), 150)
		l1 := 0.5 + math.Mod(math.Abs(l1Raw), 30)
		l2 := l1 + math.Mod(math.Abs(l2Raw), 10)
		return a.Delay[Rise].Lookup(slew, l2) >= a.Delay[Rise].Lookup(slew, l1)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrongerDriveIsFaster(t *testing.T) {
	lib := NewSynthetic(TechN3())
	x1, _ := lib.CellByName("NAND2_X1")
	x4, _ := lib.CellByName("NAND2_X4")
	d1 := lib.Cell(x1).FindArc("A", "Y").Delay[Fall].Lookup(10, 8)
	d4 := lib.Cell(x4).FindArc("A", "Y").Delay[Fall].Lookup(10, 8)
	if d4 >= d1 {
		t.Errorf("X4 (%v ps) not faster than X1 (%v ps) at load 8fF", d4, d1)
	}
	// But the stronger cell costs more input cap, area and leakage.
	c1, c4 := lib.Cell(x1), lib.Cell(x4)
	if c4.PinCap["A"] <= c1.PinCap["A"] || c4.Area <= c1.Area || c4.Leakage <= c1.Leakage {
		t.Error("stronger drive should cost more cap/area/leakage")
	}
}

func TestSigmaTracksDelay(t *testing.T) {
	tech := TechN3()
	lib := NewSynthetic(tech)
	id, _ := lib.CellByName("AOI21_X1")
	a := lib.Cell(id).FindArc("B", "Y")
	d := a.Delay[Rise].Lookup(20, 4)
	s := a.Sigma[Rise].Lookup(20, 4)
	want := tech.SigmaFrac*d + tech.SigmaBase
	if math.Abs(s-want) > 1e-9 {
		t.Errorf("sigma = %v, want %v", s, want)
	}
}

func TestRiseFallAsymmetry(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, _ := lib.CellByName("INV_X1")
	a := lib.Cell(id).FindArc("A", "Y")
	r := a.Delay[Rise].Lookup(10, 4)
	f := a.Delay[Fall].Lookup(10, 4)
	if f >= r {
		t.Errorf("fall delay %v should be below rise delay %v in this tech", f, r)
	}
}

func TestValidateCatchesBadTable(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, _ := lib.CellByName("INV_X1")
	// Corrupt the slew axis ordering.
	lib.Cell(id).Arcs[0].Delay[Rise].Slew[1] = lib.Cell(id).Arcs[0].Delay[Rise].Slew[0]
	if err := lib.Validate(); err == nil {
		t.Error("Validate accepted non-increasing axis")
	}
}

// TestValidateCatchesNaNAxis: a NaN compares false with everything, so an
// order check alone lets one through on either axis, at either end.
func TestValidateCatchesNaNAxis(t *testing.T) {
	for _, c := range []struct {
		what string
		at   func(a *Arc) *float64
	}{
		{"first slew", func(a *Arc) *float64 { return &a.Delay[Rise].Slew[0] }},
		{"second slew", func(a *Arc) *float64 { return &a.Delay[Rise].Slew[1] }},
		{"last load", func(a *Arc) *float64 { l := a.Sigma[Fall].Load; return &l[len(l)-1] }},
	} {
		lib := NewSynthetic(TechN3())
		id, _ := lib.CellByName("INV_X1")
		*c.at(&lib.Cell(id).Arcs[0]) = math.NaN()
		if err := lib.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a NaN axis value", c.what)
		}
	}
}

func TestValidateCatchesUndeclaredPin(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, _ := lib.CellByName("INV_X1")
	lib.Cell(id).Arcs[0].From = "GHOST"
	if err := lib.Validate(); err == nil {
		t.Error("Validate accepted undeclared arc pin")
	}
}

func TestRFName(t *testing.T) {
	if RFName(Rise) != "rise" || RFName(Fall) != "fall" {
		t.Error("RFName misbehaves")
	}
}

func TestUnateString(t *testing.T) {
	if PositiveUnate.String() != "positive_unate" ||
		NegativeUnate.String() != "negative_unate" ||
		NonUnate.String() != "non_unate" {
		t.Error("Unate.String misbehaves")
	}
}

func TestInRFs(t *testing.T) {
	cases := []struct {
		u     Unate
		outRF int
		want  []int
	}{
		{PositiveUnate, Rise, []int{Rise}},
		{PositiveUnate, Fall, []int{Fall}},
		{NegativeUnate, Rise, []int{Fall}},
		{NegativeUnate, Fall, []int{Rise}},
		{NonUnate, Rise, []int{Rise, Fall}},
		{NonUnate, Fall, []int{Rise, Fall}},
	}
	for _, c := range cases {
		rfs, n := c.u.InRFs(c.outRF)
		if n != len(c.want) {
			t.Fatalf("%v out=%d: n=%d want %d", c.u, c.outRF, n, len(c.want))
		}
		for i := 0; i < n; i++ {
			if rfs[i] != c.want[i] {
				t.Errorf("%v out=%d: rfs=%v want %v", c.u, c.outRF, rfs[:n], c.want)
			}
		}
	}
}

func TestTableLookupMatchesBilinearGrid(t *testing.T) {
	lib := NewSynthetic(TechN3())
	id, _ := lib.CellByName("BUF_X2")
	a := lib.Cell(id).FindArc("A", "Y")
	// Exact on grid points.
	tb := &a.Delay[Rise]
	for i, s := range tb.Slew {
		for j, l := range tb.Load {
			if got := tb.Lookup(s, l); math.Abs(got-tb.Val[i][j]) > 1e-12 {
				t.Fatalf("grid point (%v,%v): %v != %v", s, l, got, tb.Val[i][j])
			}
		}
	}
}
