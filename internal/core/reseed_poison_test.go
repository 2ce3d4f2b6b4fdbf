package core

import (
	"slices"
	"testing"
)

// TestReseedPoisonsRelaidRows: reseed rebuilds a re-laid row rather than
// compare the rebuild with whatever the row's slots held. A derived pin d is
// given a second fan-out and a new fan-in delay in one batch: it becomes
// stored and takes a fresh row at the tensors' tail, while its capacity — so
// its old child's place in the wave — stays. The tail is dirtied beforehand
// with exactly what d's row will hold, taken from a twin that runs the same
// in-place reseed, so a wave that compared d's rebuild with that row would
// find d unchanged and never rebuild what reads d's new delay downstream. In
// the engine itself a fresh tail slot is zero, which no rebuild equals: only
// a test can put those bytes there.
func TestReseedPoisonsRelaidRows(t *testing.T) {
	h := buildHarness(t, testSpec(85))
	opt := Options{TopK: 6, Workers: 1}
	// fresh returns a private engine over h.tab with spare tensor rows at its
	// tail, as Fork leaves it.
	fresh := func() *Engine {
		e := newLaneEngine(t, h.tab, unitLane, opt)
		e.Run()
		ne := e.Fork()
		t.Cleanup(ne.Close)
		return ne
	}
	e := fresh()
	st := e.st
	d, x := int32(-1), int32(-1)
	for p := int32(0); p < int32(st.NumPins) && d < 0; p++ {
		if !e.rows[p].derived {
			continue
		}
		child := st.FoAdj[st.FoStart[p]]
		for q := int32(0); q < int32(st.NumPins); q++ {
			if q != child && e.rows[q].stored() && st.SpOfPin[q] < 0 && st.LvLevel[q] > st.LvLevel[p]+1 {
				d, x = p, q
				break
			}
		}
	}
	if d < 0 {
		t.Fatal("test design has no derived pin to re-lay")
	}
	// The batch: d's fan-in arc slower, and a copy of its fan-out arc into x.
	in, out := st.FaninArc[st.FaninStart[d]], int32(-1)
	edited := *h.tab
	edited.Arcs = slices.Clone(h.tab.Arcs)
	for i := range edited.Arcs {
		if edited.Arcs[i].From == d {
			out = int32(i)
		}
	}
	edited.Arcs[in].MeanRise += 7
	edited.Arcs[in].MeanFall += 7
	extra := edited.Arcs[out]
	extra.To = x
	edited.Arcs = append(edited.Arcs, extra)
	seeds := []int32{d, x}
	reseed := func(e *Engine) {
		t.Helper()
		st, err := Compile(&edited)
		if err != nil {
			t.Fatal(err)
		}
		e.reseed(st, seeds)
	}

	twin := fresh()
	oldUnits := twin.rowUnits
	reseed(twin)
	if !twin.rows[d].stored() || int(twin.rows[d].off) < oldUnits || twin.rows[d].k != e.rows[d].k {
		t.Fatalf("pin %d did not take a fresh row of its capacity (%+v) — test is vacuous", d, twin.rows[d])
	}
	if e.capUnits != twin.capUnits {
		t.Fatal("twin engines differ in tensor capacity")
	}
	n := twin.rowSlots(d)
	for rf := 0; rf < 2; rf++ {
		b, _ := twin.base(rf, d)
		copy(e.top.q.sp[b:b+n], twin.top.q.sp[b:b+n])
		copy(e.top.q.mean[b:b+n], twin.top.q.mean[b:b+n])
		copy(e.top.q.std[b:b+n], twin.top.q.std[b:b+n])
	}
	reseed(e)

	cold, err := Compile(&edited)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewEngineLanes(cold, unitLane, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	ce.Run()
	for p := int32(0); p < int32(e.st.NumPins); p++ {
		if !sameShown(&e.top, &ce.top, 1, p) {
			t.Fatalf("pin %d: queues after reseeding over a dirty tail differ from a cold engine's", p)
		}
	}
	if !slices.Equal(e.Slacks(), ce.Slacks()) {
		t.Fatal("slacks after reseeding over a dirty tail differ from a cold engine's")
	}
}
