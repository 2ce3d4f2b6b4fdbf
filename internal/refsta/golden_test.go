package refsta_test

// Cross-commit golden digests of the reference engine. refsta is the exact
// oracle every other suite in the tree compares against, so a change that
// moves its numbers moves both sides of every differential together and
// passes them all. This file pins FNV-1a-style digests of everything a full update
// produces — every arc delay, every slew, every late and early
// startpoint-resolved arrival list entry for entry, every setup and hold
// slack — on the bench block presets with hold on, and the same again after
// one batch of resizes through UpdateTimingIncremental. A change to how
// refsta stores, allocates or schedules its propagation must leave this file
// untouched and passing.
//
// The test lives in the external test package because internal/bench imports
// refsta; export_test.go lends it the stored lists without the copy the public
// accessors make.

import (
	"math"
	"testing"

	"insta/internal/bench"
	"insta/internal/netlist"
	"insta/internal/refsta"
)

// goldenDigests holds, per block, the digest after New + EnableHoldAnalysis
// and the digest after goldenResizes committed resizes and one incremental
// update.
var goldenDigests = map[string][2]uint64{
	"block-1": {0x9ecbfc195a50dd8f, 0x89059e8b5c5970d5},
	"block-2": {0x72527eb871e3ba3b, 0x404256f4fad7aa0a},
	"block-3": {0x3db66e4fe9c6e164, 0x5dc4a47e7dd0e6e7},
	"block-4": {0x465d86f7bd1b59f6, 0xdd8e465263aea1dd},
	"block-5": {0x6d724decd6b6329a, 0x71e68217d0ddf3d9},
}

const goldenResizes = 24

// fnv64a is FNV-1a folding a 64-bit word per step instead of a byte: each
// step is still a bijection of the state, so any single changed word changes
// the digest, at an eighth of the multiplies — the block-1 digest covers
// ~60 M arrival entries, twice.
type fnv64a uint64

func (h *fnv64a) u64(v uint64) { *h = (*h ^ fnv64a(v)) * 1099511628211 }

func (h *fnv64a) floats(vs ...float64) {
	for _, v := range vs {
		h.u64(math.Float64bits(v))
	}
}

// arrivals hashes every stored list of one kind: len, then (sp, mean, σ) in
// list order.
func (h *fnv64a) arrivals(e *refsta.Engine, early bool) {
	n := e.D.NumPins()
	for rf := 0; rf < 2; rf++ {
		for p := 0; p < n; p++ {
			list := e.StoredArrivals(rf, netlist.PinID(p), early)
			h.u64(uint64(len(list)))
			for _, a := range list {
				d := a.Dist()
				h.u64(uint64(a.SP()))
				h.floats(d.Mean, d.Std)
			}
		}
	}
}

// engineDigest hashes the engine's whole analysis state in a fixed order.
func engineDigest(e *refsta.Engine) uint64 {
	h := fnv64a(14695981039346656037)
	for i := range e.Arcs {
		d := &e.Arcs[i].Delay
		h.floats(d[0].Mean, d[0].Std, d[1].Mean, d[1].Std)
	}
	n := e.D.NumPins()
	for rf := 0; rf < 2; rf++ {
		for p := 0; p < n; p++ {
			h.floats(e.Slew(rf, netlist.PinID(p)))
		}
	}
	h.arrivals(e, false)
	h.arrivals(e, true)
	h.floats(e.EndpointSlacks()...)
	h.floats(e.HoldSlacks()...)
	return uint64(h)
}

func TestGoldenDigests(t *testing.T) {
	presets := bench.BlockNames()
	if testing.Short() {
		presets = []string{"block-5"} // the shallowest block; -race runs stay short
	}
	for _, name := range presets {
		spec, err := bench.BlockSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.EnableHoldAnalysis()
		want := goldenDigests[name]
		if got := engineDigest(e); got != want[0] {
			t.Errorf("%s full: digest %#016x, golden %#016x", name, got, want[0])
		}
		for _, r := range bench.Changelist(gen, 7, goldenResizes) {
			if _, err := e.ResizeCell(r.Cell, r.NewLib); err != nil {
				t.Fatal(err)
			}
		}
		e.UpdateTimingIncremental()
		if e.LastFullUpdate {
			t.Errorf("%s: incremental update flagged as full", name)
		}
		if got := engineDigest(e); got != want[1] {
			t.Errorf("%s after %d resizes: digest %#016x, golden %#016x", name, goldenResizes, got, want[1])
		}
	}
}
