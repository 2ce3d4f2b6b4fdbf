package sdcio

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadSDC feeds SDC documents over genDesign's netlist to Read, which must
// never panic; a document it accepts must write back through Write and read
// again to equal constraints — clock, IO context and exceptions, in order.
// The seeds are Write's own output and the three documents the reader once
// accepted with a non-finite number in them.
func FuzzReadSDC(f *testing.F) {
	b := genDesign(f)
	var out bytes.Buffer
	if err := Write(&out, b.Con, b.D); err != nil {
		f.Fatal(err)
	}
	f.Add(out.Bytes())
	f.Add([]byte("create_clock -name c -period NaN\n"))
	f.Add([]byte("create_clock -name c -period Inf\n"))
	f.Add([]byte("create_clock -name c -period 10\nset_clock_uncertainty NaN [get_clocks c]\n" +
		"set_input_delay NaN [get_ports pi0]\nset_output_delay NaN [get_ports po0]\n" +
		"set_input_transition NaN [get_ports pi0]\nset_load NaN [get_ports po0]\n#insta:input_sigma pi0 NaN\n"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		con, err := Read(bytes.NewReader(doc), b.D)
		if err != nil {
			return
		}
		var w bytes.Buffer
		if err := Write(&w, con, b.D); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(w.Bytes()), b.D)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, w.String())
		}
		if !reflect.DeepEqual(back, con) {
			t.Fatalf("Read(Write(c)) differs from c:\n%+v\n%+v\n%s", back, con, w.String())
		}
	})
}
