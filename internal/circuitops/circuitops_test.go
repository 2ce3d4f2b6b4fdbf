package circuitops

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/refsta"
)

func extractTiny(t testing.TB) (*refsta.Engine, *Tables) {
	t.Helper()
	spec := bench.Spec{
		Name: "xtract", Seed: 11, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 5, Layers: 3, Width: 5,
		CrossFrac: 0.1, NumPIs: 2, NumPOs: 2,
		Period: 900, Uncertainty: 10, FalsePaths: 2, Multicycles: 1, Die: 80,
	}
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, Extract(e)
}

func TestExtractShapes(t *testing.T) {
	e, tab := extractTiny(t)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Arcs) != e.NumArcs() {
		t.Errorf("arcs = %d, want %d", len(tab.Arcs), e.NumArcs())
	}
	if len(tab.SPs) != len(e.Startpoints()) || len(tab.EPs) != len(e.Endpoints()) {
		t.Error("SP/EP counts mismatch")
	}
	if tab.NSigma != 3.0 || tab.Period != 900 {
		t.Errorf("header: nsigma=%v period=%v", tab.NSigma, tab.Period)
	}
	// Arc annotations must match the engine's.
	for i, a := range e.Arcs {
		r := tab.Arcs[i]
		if r.MeanRise != a.Delay[0].Mean || r.StdFall != a.Delay[1].Std {
			t.Fatalf("arc %d annotation mismatch", i)
		}
	}
	// 2 false paths + 1 multicycle expand to 3 atomic rows.
	if len(tab.Exceptions) != 3 {
		t.Errorf("exception rows = %d, want 3", len(tab.Exceptions))
	}
}

func TestExtractClockVariance(t *testing.T) {
	e, tab := extractTiny(t)
	ct := e.D.Clock
	if len(tab.ClockNodes) != ct.NumNodes() {
		t.Fatalf("clock nodes = %d, want %d", len(tab.ClockNodes), ct.NumNodes())
	}
	// Cumulative variance must match the tree's own accounting: for each
	// node, CommonVar(n, n) equals the extracted CumVar.
	for _, s := range tab.SPs {
		if s.ClockNode == ct.Root() {
			continue
		}
		want := ct.CommonVar(s.ClockNode, s.ClockNode)
		got := tab.ClockNodes[s.ClockNode].CumVar
		if diff := want - got; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("node %d cumvar %v, want %v", s.ClockNode, got, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	_, tab := extractTiny(t)
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, back) {
		t.Error("round trip not identical")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "#wrong\tv1\n",
		"bad pins":   "#insta-circuitops\tv1\ndesign\tx\npins\tnope\n",
		"truncated":  "#insta-circuitops\tv1\ndesign\tx\npins\t4\nperiod\t1\nnsigma\t3\narcs\t2\n0\t1\t0\t0\t-1\t-1\t1\t0\t1\t0\n",
		"bad field":  "#insta-circuitops\tv1\ndesign\tx\npins\t4\nperiod\t1\nnsigma\t3\narcs\t1\n0\t1\t0\t0\t-1\t-1\tNOPE\t0\t1\t0\nsps\t0\neps\t0\nclocknodes\t1\n-1\t0\nexceptions\t0\n",
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsSemanticErrors(t *testing.T) {
	_, tab := extractTiny(t)
	tab.Arcs[0].From = int32(tab.NumPins) + 5
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("out-of-range arc accepted by Read validation")
	}
}

func TestCompileExceptions(t *testing.T) {
	e, tab := extractTiny(t)
	exc, err := tab.CompileExceptions()
	if err != nil {
		t.Fatal(err)
	}
	// Every extracted row must be honoured by the compiled table.
	for _, r := range tab.Exceptions {
		if r.SPPin < 0 || r.EPPin < 0 {
			continue
		}
		adj := exc.Lookup(pin(r.SPPin), pin(r.EPPin))
		switch r.Kind {
		case 0:
			if !adj.False {
				t.Errorf("false path %d->%d lost", r.SPPin, r.EPPin)
			}
		case 1:
			if adj.CycleCount() != int(r.Cycles) {
				t.Errorf("multicycle %d->%d lost", r.SPPin, r.EPPin)
			}
		}
	}
	_ = e
}

func TestValidateCatchesNegativeSigma(t *testing.T) {
	_, tab := extractTiny(t)
	tab.Arcs[3].StdRise = -1
	if err := tab.Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
}

// The next three tables used to pass Validate and then crash a kernel: a
// negative pin count sized Compile's slabs, an arc kind indexed the per-kind
// lane factors out of range, and a second clock root sent the CPPR walk off
// the tree.

func TestValidateRejectsNegativePins(t *testing.T) {
	if err := (&Tables{NumPins: -1}).Validate(); err == nil {
		t.Error("negative pin count accepted")
	}
}

func TestValidateRejectsArcKind(t *testing.T) {
	_, tab := extractTiny(t)
	tab.Arcs[0].Kind = 2
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "kind 2") {
		t.Errorf("arc kind 2: Validate = %v", err)
	}
}

func TestValidateRejectsClockForest(t *testing.T) {
	_, tab := extractTiny(t)
	tab.ClockNodes[len(tab.ClockNodes)-1].Parent = -1
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "one clock tree") {
		t.Errorf("second clock root: Validate = %v", err)
	}
}

func pin(i int32) netlist.PinID { return netlist.PinID(i) }
