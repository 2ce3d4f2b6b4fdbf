package spef

import (
	"bytes"
	"reflect"
	"testing"

	"insta/internal/bench"
)

// FuzzReadSPEF feeds SPEF documents over block-5's netlist to Read, which
// must never panic; a document it accepts must write back through Write and
// read again to equal parasitics. The seeds are block-5's generated SPEF and
// the kinds of document Read rejects: a non-finite number in *PARAMS or in a
// *BRANCH, a branch out of index order and a net given twice.
func FuzzReadSPEF(f *testing.F) {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		f.Fatal(err)
	}
	b, err := bench.Generate(spec)
	if err != nil {
		f.Fatal(err)
	}
	var out bytes.Buffer
	if err := Write(&out, b.Par, b.D); err != nil {
		f.Fatal(err)
	}
	f.Add(out.Bytes())
	head := "*SPEF insta v1\n*DESIGN block-5\n"
	net := "*D_NET " + b.D.Pins[b.D.Nets[0].Driver].Name + " 1\n"
	f.Add([]byte(head + "*PARAMS NaN 1 1 1 1\n"))
	f.Add([]byte(head + "*PARAMS 1 1 1 1 Inf\n"))
	f.Add([]byte(head + "*PARAMS 1 1 1 1 1\n" + net + "*BRANCH 0 1 -Inf 1\n"))
	f.Add([]byte(head + "*PARAMS 1 1 1 1 1\n" + net + "*BRANCH 0 1 1 NaN\n"))
	f.Add([]byte(head + "*PARAMS 1 1 1 1 1\n" + net + "*BRANCH 1 1 1 1\n"))
	f.Add([]byte(head + "*PARAMS 1 1 1 1 1\n" + net + "*BRANCH 0 1 1 1\n" + net))
	f.Fuzz(func(t *testing.T, doc []byte) {
		par, err := Read(bytes.NewReader(doc), b.D)
		if err != nil {
			return
		}
		var w bytes.Buffer
		if err := Write(&w, par, b.D); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(w.Bytes()), b.D)
		if err != nil {
			t.Fatalf("Read of Write's output: %v", err)
		}
		if !reflect.DeepEqual(back, par) {
			t.Fatal("Read(Write(p)) differs from p")
		}
	})
}
