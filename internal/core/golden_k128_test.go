package core_test

// Golden digests at the deep queues the paper's Fig. 6 sweeps to: goldenDigest
// (golden_test.go) on block-5 at K = 64 and K = 128. This is where a pin's row
// capacity — the startpoints that can reach it, capped at K — differs from K
// most often, so a layout that sizes rows by it is held here to the numbers
// the dense [pins][S][K] tensors gave. Like golden_test.go, this file must stay
// untouched by refactors of the propagation kernels.

import (
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/refsta"
)

var goldenDeepDigests = map[int]uint64{
	64:  0x562bbc5ed52ba96c,
	128: 0xbe122506641c0ae5,
}

func TestGoldenDigestsDeepK(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-K golden digests run in the full suite")
	}
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(gen.D, gen.Lib, gen.Con, gen.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := circuitops.Extract(ref)
	for _, k := range []int{64, 128} {
		if got, want := goldenDigest(t, tab, k), goldenDeepDigests[k]; got != want {
			t.Errorf("block-5 K=%d: digest %#016x, golden %#016x", k, got, want)
		}
	}
}
