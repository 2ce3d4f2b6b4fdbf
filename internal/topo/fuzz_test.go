package topo

import (
	"sync"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/num"
)

var fuzzOpt = core.Options{TopK: 4, Hold: true, Workers: 1}

// The one small frozen base every fuzz input forks its working engine from.
var (
	fuzzOnce sync.Once
	fuzzTab  *circuitops.Tables
	fuzzEng  *core.Engine
)

func fuzzBase(t *testing.T) (*circuitops.Tables, *core.Engine) {
	fuzzOnce.Do(func() {
		fuzzTab = specTables(t, bench.Spec{
			Name: "topofuzz", Seed: 7, Tech: liberty.TechN3(),
			Groups: 1, FFsPerGroup: 4, Layers: 3, Width: 4,
			CrossFrac: 0.1, NumPIs: 2, NumPOs: 2,
			Period: 1, Uncertainty: 10, Die: 40, VioFrac: 0.1,
		})
		fuzzEng = mustEngine(t, fuzzTab, fuzzOpt)
	})
	return fuzzTab, fuzzEng
}

// FuzzTopoSession decodes op batches from bytes and drives one working engine
// through Edit with them. No input may panic. A rejected batch leaves the
// working state as it was. After every accepted batch the working engine is
// bit-identical to a cold compile of the fuzzer's own tables, advanced by each
// accepted batch's edits; every arc id handed out so far still names a row of
// the working state and of those tables, and that row still joins the pins it joined when
// the id was handed out unless an op of the batch rewrote exactly that arc: an
// insert re-points its target at the new buffer, a removal re-points the
// buffer's output wires at its driver.
//
// Encoding: a batch is a header byte then 1 + header&3 ops of four bytes; header
// bit 7 turns every op of the batch into an Annotate of its arc and delay (an
// annotate-only batch, legal as the first). Op byte 0 holds the kind (mod 3: insert, remove, annotate) in bits
// 0-2, the insert's driver fraction in sixths in bits 3-5 (7/6 is out of
// range), and in bit 7 whether the arc is counted back from the newest
// (arcs-1-id&7, how a script reaches the arcs it just appended) or is the
// little-endian int16 of bytes 1-2, mod arcs+1 (so arcs itself, and every
// negative id, is out of range). Byte 3 is the delay: mean in quarters from
// bits 2-7, sigma in eighths from bits 0-1, 255 a negative sigma.
func FuzzTopoSession(f *testing.F) {
	const back, insert, remove, annotate = 0x80, 0, 1, 2
	// Insert into arc 5 at 3/6, remove the buffer again, remove it twice.
	f.Add([]byte{0, insert | 3<<3, 5, 0, 41, 0, back | remove, 1, 0, 0, 0, back | remove, 1, 0, 0})
	// One batch: two inserts and an annotation; then an annotate-only batch on
	// the new arcs.
	f.Add([]byte{2, insert, 5, 0, 30, insert | 2<<3, 9, 0, 22, annotate, 1, 0, 77, 0x81, back, 0, 0, 9, back, 3, 0, 13})
	// Out-of-range arc, driver fraction 7/6, negative sigma, the same arc twice.
	f.Add([]byte{0, annotate, 255, 255, 8, 0, insert | 7<<3, 5, 0, 8, 0, annotate, 3, 0, 255, 1, annotate, 3, 0, 8, annotate, 3, 0, 9})
	// testdata/fuzz/FuzzTopoSession holds the bypass cases: nested_bypass (a
	// buffer on another buffer's output wire, inner then outer removed: the
	// outer removal re-points the inner one's stub), stub_edits (annotate and
	// re-buffer the arcs a removal left behind), mixed_batches (removals riding
	// with inserts and annotations, annotate-only batches interleaved) and
	// annotate_first (an annotate-only first batch on the unedited base,
	// then an unbuffer and a second annotate-only batch).

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, base := fuzzBase(t)
		eng := base.Fork()
		defer eng.Close()
		work := cloneTables(tab)

		pins := make([]wire, len(tab.Arcs)) // what every id handed out so far must name
		for i, a := range tab.Arcs {
			pins[i] = wire{a.From, a.To}
		}
		checkPins := func(when string) {
			t.Helper()
			st := eng.ExportState()
			if err := st.Validate(); err != nil {
				t.Fatalf("%s: working state fails Validate: %v", when, err)
			}
			if len(st.ArcFrom) != len(pins) || len(work.Arcs) != len(pins) {
				t.Fatalf("%s: %d arcs in the working state, %d in the tables, want %d", when, len(st.ArcFrom), len(work.Arcs), len(pins))
			}
			for i, w := range pins {
				if st.ArcFrom[i] != w.from || st.ArcTo[i] != w.to {
					t.Fatalf("%s: working arc %d joins %d->%d, want %d->%d", when, i, st.ArcFrom[i], st.ArcTo[i], w.from, w.to)
				}
				if a := work.Arcs[i]; a.From != w.from || a.To != w.to {
					t.Fatalf("%s: table arc %d joins %d->%d, want %d->%d", when, i, a.From, a.To, w.from, w.to)
				}
			}
		}

		for batches := 0; len(data) > 0 && batches < 12; batches++ {
			head := data[0]
			data = data[1:]
			nArcs := int32(len(pins))
			var ops []Op
			for n := 1 + int(head&3); n > 0 && len(data) >= 4; n-- {
				b := data[:4]
				data = data[4:]
				id := int32(int16(uint16(b[1]) | uint16(b[2])<<8))
				switch {
				case b[0]&back != 0:
					id = nArcs - 1 - id&7
				case id >= 0:
					id %= nArcs + 1
				}
				d := num.Dist{Mean: float64(b[3]>>2) / 4, Std: float64(b[3]&3) / 8}
				if b[3] == 255 {
					d.Std = -1
				}
				switch delay := [2]num.Dist{d, {Mean: d.Mean * 1.05, Std: d.Std}}; b[0] & 7 % 3 {
				case insert:
					ops = append(ops, InsertBuffer(id, -1, delay, float64(b[0]>>3&7)/6))
				case remove:
					ops = append(ops, RemoveBuffer(id))
				case annotate:
					ops = append(ops, Annotate(id, delay))
				}
			}

			if head&0x80 != 0 {
				for i, op := range ops {
					ops[i] = Annotate(op.Arc, op.Delay)
				}
			}
			res, err := Edit(eng, ops)
			if err != nil {
				checkPins("rejected batch")
				continue
			}
			// The batch was accepted, so its ops claimed disjoint arcs and
			// each reads the netlist as the batch found it.
			before := pins
			pins = append([]wire(nil), pins...)
			newPin := int32(work.NumPins)
			advance(work, res)
			for _, op := range ops {
				switch op.Kind {
				case OpInsertBuffer:
					pins = append(pins, wire{newPin, newPin + 1}, wire{newPin + 1, before[op.Arc].to})
					pins[op.Arc].to = newPin
					newPin += 2
				case OpRemoveBuffer:
					buf := before[op.Arc]
					for _, in := range before {
						if in.to != buf.from {
							continue
						}
						for i, out := range before {
							if out.from == buf.to {
								pins[i].from = in.from
							}
						}
					}
				}
			}
			checkPins("accepted batch")
			assertEnginesIdentical(t, "fuzzed edits", eng, work, fuzzOpt)
		}
	})
}
