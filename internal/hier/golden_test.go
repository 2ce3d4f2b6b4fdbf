package hier

// Cross-commit golden digests of the hierarchical layer. The differential
// suite in hier_test.go compares the composed analysis with a flat engine built
// from the same checkout, so a change that moves extraction and the flat side
// together passes it. This file pins the numbers themselves: the EncodeModel
// bytes of every instance's extracted model, and CompareFlat's per-scenario
// flat, composed and recovered WNS/TNS, bound and per-endpoint delta summary
// (wall times excluded), on three chip configurations. A change to how
// extraction or the flat comparison derate and propagate must leave this file
// untouched and passing.

import (
	"hash/fnv"
	"math"
	"testing"

	"insta/internal/core"
)

var hierGolden = []struct {
	chip    string
	corners string // core.ParseScenarios spec; "" = the nominal scenario
	topK    int
	digest  uint64
}{
	{"chip-2x", "ss,tt,ff", 16, 0x26c4f50cf8308815},
	{"chip-4x", "", 8, 0x984c9fb5385a4efb},
	{"chip-2x", "hot:1.3/1.4/1.2,tt", 4, 0x120f80734a48fade},
}

func TestHierGoldenDigests(t *testing.T) {
	for _, g := range hierGolden {
		var scns []core.Scenario
		if g.corners != "" {
			var err error
			if scns, err = core.ParseScenarios(g.corners); err != nil {
				t.Fatal(err)
			}
		}
		opt := core.Options{TopK: g.topK, Workers: 2}
		run := mustChipRun(t, g.chip, scns, opt, nil)
		h := fnv.New64a()
		word := func(vs ...float64) {
			var b [8]byte
			for _, v := range vs {
				u := math.Float64bits(v)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				h.Write(b[:])
			}
		}
		for _, m := range run.Models {
			h.Write(EncodeModel(m))
		}
		c, err := run.CompareFlat(opt)
		if err != nil {
			t.Fatal(err)
		}
		word(float64(c.FlatPins), float64(c.TopPins))
		for _, s := range c.Scen {
			h.Write([]byte(s.Name))
			d := s.Deltas
			word(s.FlatWNS, s.FlatTNS, s.HierWNS, s.HierTNS, s.RecWNS, s.RecTNS, s.Bound,
				float64(d.N), d.Max, d.Mean, d.Q50, d.Q95, d.Q99, float64(d.Disagree))
		}
		got := h.Sum64()
		t.Logf("%s %q K=%d: digest %#x", g.chip, g.corners, g.topK, got)
		if got != g.digest {
			t.Errorf("%s %q K=%d: digest %#x, want %#x", g.chip, g.corners, g.topK, got, g.digest)
		}
	}
}
