package vlog

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/rc"
	"insta/internal/refsta"
	"insta/internal/sdc"
)

func genDesign(t testing.TB, seed int64) *bench.Design {
	t.Helper()
	b, err := bench.Generate(bench.Spec{
		Name: "vlogtest", Seed: seed, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 6, Layers: 3, Width: 6,
		CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
		Period: 700, Uncertainty: 10, FalsePaths: 1, Multicycles: 1, Die: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTripStructure(t *testing.T) {
	b := genDesign(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, b.D, b.Lib); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), b.Lib)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.D.Name {
		t.Errorf("name %q != %q", got.Name, b.D.Name)
	}
	if got.NumCells() != b.D.NumCells() {
		t.Errorf("cells %d != %d", got.NumCells(), b.D.NumCells())
	}
	if got.NumPins() != b.D.NumPins() {
		t.Errorf("pins %d != %d", got.NumPins(), b.D.NumPins())
	}
	if len(got.Nets) != len(b.D.Nets) {
		t.Errorf("nets %d != %d", len(got.Nets), len(b.D.Nets))
	}
	if got.Clock == nil || got.Clock.NumNodes() != b.D.Clock.NumNodes() {
		t.Error("clock tree lost")
	}
	// Every cell keeps its library binding and position.
	for i := range b.D.Cells {
		want := &b.D.Cells[i]
		id, ok := got.CellByName(want.Name)
		if !ok {
			t.Fatalf("cell %q lost", want.Name)
		}
		c := &got.Cells[id]
		if c.LibCell != want.LibCell {
			t.Fatalf("cell %q libcell %d != %d", want.Name, c.LibCell, want.LibCell)
		}
		if c.X != want.X || c.Y != want.Y {
			t.Fatalf("cell %q position lost", want.Name)
		}
	}
}

// TestRoundTripTiming is the strong check: the re-read design must produce
// identical timing under the reference engine (slacks matched per endpoint
// pin name — pin ids are permuted by parsing order).
func TestRoundTripTiming(t *testing.T) {
	b := genDesign(t, 2)
	refA, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slackByName := map[string]float64{}
	for i, ep := range refA.Endpoints() {
		slackByName[b.D.Pins[ep].Name] = refA.EndpointSlacks()[i]
	}

	var buf bytes.Buffer
	if err := Write(&buf, b.D, b.Lib); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), b.Lib)
	if err != nil {
		t.Fatal(err)
	}
	// Constraints are keyed by pin id: remap by name onto the new design.
	con := remapConstraints(t, b, got)
	par := rc.FromPlacement(got, b.Par.Params)
	refB, err := refsta.New(got, b.Lib, con, par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range refB.Endpoints() {
		name := got.Pins[ep].Name
		want, ok := slackByName[name]
		if !ok {
			t.Fatalf("endpoint %q not in original", name)
		}
		gotS := refB.EndpointSlacks()[i]
		if math.IsInf(want, 1) && math.IsInf(gotS, 1) {
			continue
		}
		if math.Abs(want-gotS) > 1e-9 {
			t.Fatalf("endpoint %q: slack %v != %v", name, gotS, want)
		}
	}
}

// remapConstraints translates the pin-id-keyed constraint maps onto the
// re-read design by pin name.
func remapConstraints(t testing.TB, b *bench.Design, got *netlist.Design) *sdc.Constraints {
	t.Helper()
	mapPin := func(p netlist.PinID) netlist.PinID {
		q, ok := got.PinByName(b.D.Pins[p].Name)
		if !ok {
			t.Fatalf("pin %q missing after round trip", b.D.Pins[p].Name)
		}
		return q
	}
	con := sdc.New(b.Con.Clock)
	for p, v := range b.Con.InputDelay {
		con.InputDelay[mapPin(p)] = v
	}
	for p, v := range b.Con.InputSlew {
		con.InputSlew[mapPin(p)] = v
	}
	for p, v := range b.Con.OutputDelay {
		con.OutputDelay[mapPin(p)] = v
	}
	for p, v := range b.Con.OutputLoad {
		con.OutputLoad[mapPin(p)] = v
	}
	for _, ex := range b.Con.Exceptions {
		ne := sdc.Exception{Kind: ex.Kind, Cycles: ex.Cycles}
		for _, p := range ex.From {
			ne.From = append(ne.From, mapPin(p))
		}
		for _, p := range ex.To {
			ne.To = append(ne.To, mapPin(p))
		}
		con.Exceptions = append(con.Exceptions, ne)
	}
	return con
}

// garbage is documents Read must reject, by what is wrong with them.
var garbage = map[string]string{
	"no module":      "wire x;\n",
	"bad instance":   "module m ();\n  FOO u1 (.A(x));\nendmodule\n",
	"positional":     "module m ();\n  INV_X1 u1 (x, y);\nendmodule\n",
	"bad assign":     "module m ();\n  assign x;\nendmodule\n",
	"bad clockpin":   "module m ();\nendmodule\n//insta:clockpin onlyone\n",
	"two-token port": "module m (a b);\n  input a b;\nendmodule\n",
	"assigned and driven output": "module m (a, o);\n  input a;\n  input o;\n  output o;\n" +
		"  INV_X1 u (.A(a), .Y(w));\n  assign o = w;\nendmodule\n",
}

func TestReadRejectsGarbage(t *testing.T) {
	lib := liberty.NewSynthetic(liberty.TechN3())
	for name, doc := range garbage {
		if _, err := Read(strings.NewReader(doc), lib); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// badNumber puts value in field field (the pragma keyword is field 0) of the
// nth line of a written document that starts with pragma.
type badNumber struct {
	name, pragma string
	nth, field   int
	value        string
}

// apply returns doc with c's field replaced and the 1-based number of the
// line it edited, 0 when doc has no such line.
func (c badNumber) apply(doc string) (string, int) {
	lines := strings.Split(doc, "\n")
	seen := 0
	for i, line := range lines {
		if !strings.HasPrefix(line, c.pragma+" ") {
			continue
		}
		if seen++; seen == c.nth {
			f := strings.Fields(line)
			f[c.field] = c.value
			lines[i] = strings.Join(f, " ")
			return strings.Join(lines, "\n"), i + 1
		}
	}
	return doc, 0
}

// badNumbers is one bad value per numeric field of every pragma. Node 1 of the
// clock tree is edited, so the root rule does not reject it first.
var badNumbers = []badNumber{
	{"clocknode/id", "//insta:clocknode", 2, 1, "7"},
	{"clocknode/id-text", "//insta:clocknode", 2, 1, "one"},
	{"clocknode/parent", "//insta:clocknode", 2, 2, "bogus"},
	{"clocknode/mean-nan", "//insta:clocknode", 2, 3, "NaN"},
	{"clocknode/mean-inf", "//insta:clocknode", 2, 3, "Inf"},
	{"clocknode/mean-text", "//insta:clocknode", 2, 3, "bogus"},
	{"clocknode/sigma-nan", "//insta:clocknode", 2, 4, "NaN"},
	{"clocknode/sigma-neg-inf", "//insta:clocknode", 2, 4, "-Inf"},
	{"clocknode/sigma-negative", "//insta:clocknode", 2, 4, "-1"},
	{"clockpin/node-text", "//insta:clockpin", 1, 2, "x"},
	{"clockpin/node-negative", "//insta:clockpin", 1, 2, "-1"},
	{"clockpin/node-past-tree", "//insta:clockpin", 1, 2, "1000000"},
	{"cellpos/x", "//insta:cellpos", 1, 2, "NaN"},
	{"cellpos/y", "//insta:cellpos", 1, 3, "+Inf"},
	{"cellpos/width", "//insta:cellpos", 1, 4, "bogus"},
	{"cellpos/fixed", "//insta:cellpos", 1, 5, "2"},
	{"portpos/x", "//insta:portpos", 1, 2, "NaN"},
	{"portpos/y", "//insta:portpos", 1, 3, "-Inf"},
}

// TestReadRejectsBadNumbers edits one numeric field of one pragma in a
// written design at a time: Read must reject the document with the edited
// line's number, where it once took NaN for a coordinate or a clock edge.
func TestReadRejectsBadNumbers(t *testing.T) {
	b := genDesign(t, 4)
	var buf bytes.Buffer
	if err := Write(&buf, b.D, b.Lib); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(strings.NewReader(buf.String()), b.Lib); err != nil {
		t.Fatalf("the unedited document: %v", err)
	}
	for _, c := range badNumbers {
		t.Run(c.name, func(t *testing.T) {
			doc, line := c.apply(buf.String())
			if line == 0 {
				t.Fatalf("the document has no %d %s line", c.nth, c.pragma)
			}
			_, err := Read(strings.NewReader(doc), b.Lib)
			if err == nil {
				t.Fatalf("accepted %q", c.value)
			}
			if want := fmt.Sprintf("line %d:", line); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name line %d", err, line)
			}
		})
	}
}

func TestWriteIsParsableText(t *testing.T) {
	b := genDesign(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, b.D, b.Lib); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "module vlogtest (") {
		t.Error("missing module header")
	}
	if !strings.Contains(text, "endmodule") {
		t.Error("missing endmodule")
	}
	if !strings.Contains(text, "//insta:clocktree") {
		t.Error("missing clock sidecar")
	}
}
