package libertyio

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"insta/internal/liberty"
)

// FuzzLibertyRead feeds Liberty documents to Read, which must never panic; a
// library it accepts must write back through Write and read again to an equal
// library — cells, pins, arcs, tables and constraints alike. The seeds are
// Write's output for two drives of one synthetic footprint and a flip-flop,
// their tables cut to 2×2 so that the fuzzer's minimizer stays quick, and a
// minimal one-cell document.
func FuzzLibertyRead(f *testing.F) {
	syn := liberty.NewSynthetic(liberty.TechASAP7())
	cells := []*liberty.Cell{syn.Cells[0], syn.Cells[1]}
	for _, c := range syn.Cells {
		if c.Seq {
			cells = append(cells, c)
			break
		}
	}
	for i, c := range cells {
		small := *c
		small.Arcs = slices.Clone(c.Arcs)
		for j := range small.Arcs {
			a := &small.Arcs[j]
			for rf := 0; rf < 2; rf++ {
				for _, t := range []*liberty.Table{&a.Delay[rf], &a.OutSlew[rf], &a.Sigma[rf]} {
					*t = liberty.Table{Slew: t.Slew[:2], Load: t.Load[:2], Val: [][]float64{t.Val[0][:2], t.Val[1][:2]}}
				}
			}
		}
		cells[i] = &small
	}
	var out bytes.Buffer
	if err := Write(&out, liberty.Rebuild(syn.Name, cells)); err != nil {
		f.Fatal(err)
	}
	f.Add(out.Bytes())
	f.Add([]byte(`library (l) { cell (X) { cell_footprint : "X"; area : 1; pin (A) { direction : input; capacitance : 1; } } }`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		lib, err := Read(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var w strings.Builder
		if err := Write(&w, lib); err != nil {
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(w.String()))
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, w.String())
		}
		if !reflect.DeepEqual(back, lib) {
			t.Fatalf("Read(Write(lib)) differs from lib:\n%+v\n%+v\n%s", back, lib, w.String())
		}
	})
}
