package sdcio

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/sdc"
)

func genDesign(t testing.TB) *bench.Design {
	t.Helper()
	b, err := bench.Generate(bench.Spec{
		Name: "sdctest", Seed: 5, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 5, Layers: 3, Width: 5,
		CrossFrac: 0.1, NumPIs: 3, NumPOs: 3,
		Period: 800, Uncertainty: 12, FalsePaths: 2, Multicycles: 1, Die: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Con.Clock.HoldUncertainty = 3
	return b
}

func TestRoundTrip(t *testing.T) {
	b := genDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, b.Con, b.D); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), b.D)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if got.Clock != b.Con.Clock {
		t.Errorf("clock %+v != %+v", got.Clock, b.Con.Clock)
	}
	if !reflect.DeepEqual(got.InputDelay, b.Con.InputDelay) {
		t.Error("input delays differ")
	}
	if !reflect.DeepEqual(got.InputSlew, b.Con.InputSlew) {
		t.Error("input slews differ")
	}
	if !reflect.DeepEqual(got.OutputDelay, b.Con.OutputDelay) {
		t.Error("output delays differ")
	}
	if !reflect.DeepEqual(got.OutputLoad, b.Con.OutputLoad) {
		t.Error("output loads differ")
	}
	// Exceptions order-insensitively equal.
	normalize := func(exs []sdc.Exception) []string {
		var out []string
		for _, e := range exs {
			out = append(out, exString(e))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(normalize(got.Exceptions), normalize(b.Con.Exceptions)) {
		t.Errorf("exceptions differ:\n%v\n%v", got.Exceptions, b.Con.Exceptions)
	}
}

func exString(e sdc.Exception) string {
	return strings.Join([]string{
		e.Kind.String(),
		pinList(e.From),
		pinList(e.To),
		string(rune('0' + e.Cycles)),
	}, "|")
}

func pinList(ps []netlist.PinID) string {
	var ss []string
	for _, p := range ps {
		ss = append(ss, string(rune('A'+int(p)%26)))
	}
	return strings.Join(ss, ",")
}

func TestReadRejectsBadInput(t *testing.T) {
	b := genDesign(t)
	cases := map[string]string{
		"no clock":        "set_input_delay 5 [get_ports pi0]\n",
		"bad command":     "create_clock -name c -period 10\nfrobnicate 5\n",
		"unknown pin":     "create_clock -name c -period 10\nset_input_delay 5 [get_ports nope]\n",
		"bad multicycle":  "create_clock -name c -period 10\nset_multicycle_path -from [get_pins pi0]\n",
		"orphan pin":      "create_clock -name c -period 10\nset_false_path [get_pins pi0]\n",
		"bad uncertainty": "create_clock -name c -period 10\nset_clock_uncertainty -setup [get_clocks c]\n",
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc), b.D); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteReadableText(t *testing.T) {
	b := genDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, b.Con, b.D); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"create_clock", "set_input_delay", "set_false_path", "set_multicycle_path", "-hold"} {
		if !strings.Contains(text, want) {
			t.Errorf("SDC text missing %q", want)
		}
	}
}

// TestReadRejectsNonFinite: every number a constraint holds is finite. NaN
// passes a `<= 0` check and Inf a `> 0` one, so each command that reads a
// number must reject both by name, with the line they are on.
func TestReadRejectsNonFinite(t *testing.T) {
	b := genDesign(t)
	clock := "create_clock -name c -period 10\n"
	for cmd, line := range map[string]string{
		"create_clock -period NaN":    "create_clock -name c -period NaN",
		"create_clock -period Inf":    "create_clock -name c -period Inf",
		"set_clock_uncertainty":       "set_clock_uncertainty -setup NaN [get_clocks c]",
		"set_clock_uncertainty -hold": "set_clock_uncertainty -hold -Inf [get_clocks c]",
		"set_input_delay":             "set_input_delay NaN [get_ports pi0]",
		"set_output_delay":            "set_output_delay +Inf [get_ports po0]",
		"set_input_transition":        "set_input_transition nan [get_ports pi0]",
		"set_load":                    "set_load NaN [get_ports po0]",
		"#insta:input_sigma":          "#insta:input_sigma pi0 NaN",
	} {
		t.Run(cmd, func(t *testing.T) {
			_, err := Read(strings.NewReader(clock+line+"\n"), b.D)
			if err == nil || !strings.Contains(err.Error(), "line 2:") || !strings.Contains(err.Error(), "not a finite number") {
				t.Fatalf("%q: error %v, want a non-finite number on line 2", line, err)
			}
		})
	}
}
