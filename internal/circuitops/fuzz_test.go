package circuitops_test

import (
	"bytes"
	"testing"

	"insta/internal/circuitops"
	"insta/internal/core"
)

// maxFuzzPins bounds the pin count a fuzzed document may compile with: the
// header states it freely and Compile sizes its per-pin slabs by it, so an
// unbounded one would measure the host's memory, not the decoder.
const maxFuzzPins = 1 << 17

// FuzzReadTables holds circuitops.Read to what a decoder of outside bytes
// owes: no input panics it; a document it accepts writes back to itself
// (Read(Write(t)) is t, compared through Write so a NaN compares equal); and
// an accepted document either makes core.Compile return an error or compiles
// to a State that passes Validate and runs — propagation, setup and hold
// slacks — without panicking. testdata/fuzz/FuzzReadTables holds a block-5
// extraction and the three documents that used to crash a kernel:
// negative_pins, arc_kind_2 and clock_forest.
func FuzzReadTables(f *testing.F) {
	f.Add([]byte("#insta-circuitops\tv1\ndesign\tx\npins\t1\nperiod\t1\nnsigma\t3\narcs\t0\nsps\t0\neps\t0\nclocknodes\t0\nexceptions\t0\n"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		tab, err := circuitops.Read(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := tab.Write(&once); err != nil {
			t.Fatal(err)
		}
		back, err := circuitops.Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("Read of Write's output: %v", err)
		}
		if err := back.Write(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Read(Write(t)) differs from t")
		}
		if tab.NumPins > maxFuzzPins {
			return
		}
		st, err := core.Compile(tab)
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("compiled state fails Validate: %v", err)
		}
		e, err := core.NewEngineFromState(st, core.Options{TopK: 4, Hold: true, Workers: 1})
		if err != nil {
			t.Fatalf("engine over a valid state: %v", err)
		}
		defer e.Close()
		e.Run()
		e.EvalHoldSlacks()
	})
}
