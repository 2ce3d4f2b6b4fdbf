package libertyio

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
	"insta/internal/refsta"
)

func TestRoundTripLibrary(t *testing.T) {
	for _, tech := range []liberty.Tech{liberty.TechN3(), liberty.TechASAP7()} {
		orig := liberty.NewSynthetic(tech)
		var buf bytes.Buffer
		if err := Write(&buf, orig); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tech.Name, err)
		}
		if got.Name != orig.Name {
			t.Errorf("name %q != %q", got.Name, orig.Name)
		}
		if len(got.Cells) != len(orig.Cells) {
			t.Fatalf("%s: %d cells, want %d", tech.Name, len(got.Cells), len(orig.Cells))
		}
		for _, want := range orig.Cells {
			id, ok := got.CellByName(want.Name)
			if !ok {
				t.Fatalf("cell %s lost", want.Name)
			}
			c := got.Cell(id)
			if c.Footprint != want.Footprint || c.Drive != want.Drive {
				t.Fatalf("cell %s: footprint/drive %s/%d, want %s/%d",
					want.Name, c.Footprint, c.Drive, want.Footprint, want.Drive)
			}
			if c.Area != want.Area || c.Leakage != want.Leakage {
				t.Fatalf("cell %s: area/leakage mismatch", want.Name)
			}
			if !reflect.DeepEqual(c.PinCap, want.PinCap) {
				t.Fatalf("cell %s: pin caps differ", want.Name)
			}
			if c.Seq != want.Seq || c.Setup != want.Setup || c.Hold != want.Hold {
				t.Fatalf("cell %s: sequential attributes differ", want.Name)
			}
			if len(c.Arcs) != len(want.Arcs) {
				t.Fatalf("cell %s: %d arcs, want %d", want.Name, len(c.Arcs), len(want.Arcs))
			}
			for i := range want.Arcs {
				wa, ga := &want.Arcs[i], &c.Arcs[i]
				if wa.From != ga.From || wa.To != ga.To || wa.Sense != ga.Sense {
					t.Fatalf("cell %s arc %d header differs", want.Name, i)
				}
				for rf := 0; rf < 2; rf++ {
					if !reflect.DeepEqual(wa.Delay[rf], ga.Delay[rf]) ||
						!reflect.DeepEqual(wa.OutSlew[rf], ga.OutSlew[rf]) ||
						!reflect.DeepEqual(wa.Sigma[rf], ga.Sigma[rf]) {
						t.Fatalf("cell %s arc %d rf %d tables differ", want.Name, i, rf)
					}
				}
			}
		}
	}
}

// TestRoundTripTiming times the same design against the original and the
// re-read library; slacks must agree exactly.
func TestRoundTripTiming(t *testing.T) {
	b, err := bench.Generate(bench.Spec{
		Name: "libiotest", Seed: 4, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 5, Layers: 3, Width: 5,
		CrossFrac: 0.1, NumPIs: 2, NumPOs: 2,
		Period: 800, Uncertainty: 10, Die: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	refA, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Write(&buf, b.Lib); err != nil {
		t.Fatal(err)
	}
	lib2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Cell ids must be stable for the design to bind unchanged.
	for i := range b.Lib.Cells {
		if b.Lib.Cells[i].Name != lib2.Cells[i].Name {
			t.Fatalf("cell id %d renames %s -> %s", i, b.Lib.Cells[i].Name, lib2.Cells[i].Name)
		}
	}
	refB, err := refsta.New(b.D, lib2, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := refA.EndpointSlacks(), refB.EndpointSlacks()
	for i := range sa {
		if math.IsInf(sa[i], 1) && math.IsInf(sb[i], 1) {
			continue
		}
		if sa[i] != sb[i] {
			t.Fatalf("ep %d: %v != %v", i, sb[i], sa[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"not library":    "cell (X) { }",
		"no cells":       "library (l) { }",
		"unterminated":   "library (l) { cell (X) {",
		"bad sense":      `library (l) { cell (X) { cell_footprint : "X"; area : 1; pin (A) { direction : input; capacitance : 1; } pin (Y) { direction : output; timing () { related_pin : "A"; timing_sense : sideways; } } } }`,
		"no footprint":   "library (l) { cell (X) { area : 1; } }",
		"bad direction":  `library (l) { cell (X) { cell_footprint : "X"; area : 1; pin (A) { direction : diagonal; } } }`,
		"string runaway": `library (l) { cell (X) { cell_footprint : "X`,
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteShape(t *testing.T) {
	lib := liberty.NewSynthetic(liberty.TechN3())
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"library (n3-synthetic)", "cell (INV_X1)", "cell_footprint",
		"timing_sense : negative_unate", "ocv_sigma_cell_rise",
		"ff (IQ, IQN)", "timing_type : setup_rising", "timing_type : hold_rising",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("liberty text missing %q", want)
		}
	}
}

// badNumberDoc is a one-cell library whose numeric fields are placeholders:
// fill it with the valid defaults and one field overridden.
const badNumberDoc = `library (l) {
  cell (DFF) {
    cell_footprint : "DFF";
    area : {area};
    {leakage}
    ff (IQ, IQN) { clocked_on : "CK"; next_state : "D"; }
    pin (D) {
      direction : input;
      capacitance : {cap};
      timing () {
        related_pin : "CK";
        timing_type : setup_rising;
        rise_constraint (scalar) { values ("{setup}"); }
        fall_constraint (scalar) { values ("2"); }
      }
    }
    pin (CK) { direction : input; capacitance : 1; clock : true; }
    pin (Q) {
      direction : output;
      timing () {
        related_pin : "CK";
        timing_sense : non_unate;
        cell_rise (t) { index_1 ("{slew}"); index_2 ("{load}"); values ("{delay}, 11", "12, 13"); }
        rise_transition (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("5, 6", "7, 8"); }
        ocv_sigma_cell_rise (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("{sigma}, 1", "1, 1"); }
        cell_fall (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("10, 11", "12, 13"); }
        fall_transition (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("5, 6", "7, 8"); }
        ocv_sigma_cell_fall (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("1, 1", "1, 1"); }
      }
    }
  }
}`

func fillBadNumberDoc(override map[string]string) string {
	fields := map[string]string{
		"area": "3", "leakage": "cell_leakage_power : 0.5;", "cap": "1.5", "setup": "4",
		"slew": "1, 2", "load": "1, 2", "delay": "10", "sigma": "1",
	}
	for k, v := range override {
		fields[k] = v
	}
	doc := badNumberDoc
	for k, v := range fields {
		doc = strings.ReplaceAll(doc, "{"+k+"}", v)
	}
	return doc
}

// TestReadRejectsBadNumbers: every numeric field rejects NaN and ±Inf, a
// capacitance or σ cannot be negative, and a leakage that is there must
// parse; the error names the cell, the pin and the group or attribute.
func TestReadRejectsBadNumbers(t *testing.T) {
	lib, err := Read(strings.NewReader(fillBadNumberDoc(nil)))
	if err != nil {
		t.Fatalf("the valid document: %v", err)
	}
	if c := lib.Cells[0]; c.Leakage != 0.5 || c.PinCap["D"] != 1.5 || c.Setup[liberty.Rise] != 4 {
		t.Fatalf("the valid document read as leakage %v, cap %v, setup %v", c.Leakage, c.PinCap["D"], c.Setup)
	}
	if lib, err := Read(strings.NewReader(fillBadNumberDoc(map[string]string{"leakage": ""}))); err != nil || lib.Cells[0].Leakage != 0 {
		t.Fatalf("an absent leakage must read 0: %v", err)
	}
	for _, c := range []struct {
		name, field, value string
		want               []string // in the error, besides the cell
	}{
		{"area NaN", "area", "NaN", []string{"area"}},
		{"area Inf", "area", "+Inf", []string{"area"}},
		{"leakage unparsable", "leakage", "cell_leakage_power : lots;", []string{"cell_leakage_power"}},
		{"leakage NaN", "leakage", "cell_leakage_power : nan;", []string{"cell_leakage_power"}},
		{"capacitance NaN", "cap", "NaN", []string{"pin D", "capacitance"}},
		{"capacitance negative", "cap", "-0.5", []string{"pin D", "capacitance"}},
		{"setup constraint Inf", "setup", "-Inf", []string{"pin D", "rise_constraint"}},
		{"slew index NaN", "slew", "1, NaN", []string{"pin Q", "cell_rise", "index_1"}},
		{"load index Inf", "load", "1, Inf", []string{"pin Q", "cell_rise", "index_2"}},
		{"delay value NaN", "delay", "NaN", []string{"pin Q", "cell_rise", "values"}},
		{"sigma NaN", "sigma", "NaN", []string{"pin Q", "ocv_sigma_cell_rise"}},
		{"sigma negative", "sigma", "-1", []string{"pin Q", "ocv_sigma_cell_rise"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(fillBadNumberDoc(map[string]string{c.field: c.value})))
			if err == nil {
				t.Fatalf("%s = %q accepted", c.field, c.value)
			}
			for _, w := range append(c.want, "cell DFF") {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %q", err, w)
				}
			}
		})
	}
}
