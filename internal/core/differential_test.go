package core

import (
	"math"
	"math/rand"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
	"insta/internal/mc"
)

// randomSpec derives a small randomized block from one seed: every knob that
// shapes the graph (group count, depth, width, cross-group fraction, clock
// period) is drawn from the seed so the differential sweep covers different
// topologies, not one design re-seeded.
func randomSpec(seed int64) bench.Spec {
	rng := rand.New(rand.NewSource(seed))
	return bench.Spec{
		Name: "difftest", Seed: seed, Tech: liberty.TechN3(),
		Groups:      2 + rng.Intn(3),
		FFsPerGroup: 5 + rng.Intn(8),
		Layers:      3 + rng.Intn(4),
		Width:       5 + rng.Intn(6),
		CrossFrac:   0.05 + 0.2*rng.Float64(),
		NumPIs:      2 + rng.Intn(4),
		NumPOs:      2 + rng.Intn(4),
		Period:      500 + float64(rng.Intn(600)),
		Uncertainty: 10,
		Die:         80,
	}
}

// TestDifferentialAgainstRefstaAndMC is the three-way differential check of
// the ISSUE: on randomized small blocks, the engine with TopK ≥ #startpoints
// must (a) reproduce the reference signoff engine's endpoint slacks exactly
// (float noise only) and (b) produce k=0 corner arrivals within Monte Carlo
// tolerance of the empirical 3-sigma quantiles — the POCV approximation
// error budget the mc package establishes.
func TestDifferentialAgainstRefstaAndMC(t *testing.T) {
	seeds := []int64{101, 202, 303, 404}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		h := buildHarness(t, randomSpec(seed))
		e, err := NewEngine(h.tab, Options{TopK: len(h.tab.SPs), Workers: 2, Grain: 16})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Run()

		// (a) Exact vs the reference engine.
		want := h.ref.EndpointSlacks()
		if len(got) != len(want) {
			t.Fatalf("seed %d: ep count %d != %d", seed, len(got), len(want))
		}
		for i := range want {
			if math.IsInf(want[i], 1) && math.IsInf(got[i], 1) {
				continue
			}
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("seed %d ep %d: INSTA slack %v != ref %v", seed, i, got[i], want[i])
			}
		}

		// (b) Statistical vs Monte Carlo ground truth: the k=0 corner
		// arrival per endpoint transition against the empirical 3-sigma
		// quantile. POCV is a per-merge Gaussian approximation, so the
		// comparison is a tolerance band, not equality.
		quantiles, err := mc.EndpointQuantiles(h.tab, 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		var relSum, relWorst float64
		pairs := 0
		for i, p := range e.Endpoints() {
			for rf := 0; rf < 2; rf++ {
				q := quantiles[i][rf]
				mean, std, sps := e.TopEntries(rf, p)
				if math.IsNaN(q) || sps[0] == noSP {
					if !math.IsNaN(q) || sps[0] != noSP {
						t.Fatalf("seed %d ep %d rf %d: timed/untimed disagreement (mc %v, insta sp %d)",
							seed, i, rf, q, sps[0])
					}
					continue
				}
				if q == 0 {
					continue
				}
				rel := math.Abs(mean[0]+e.nSigma*std[0]-q) / math.Abs(q)
				relSum += rel
				if rel > relWorst {
					relWorst = rel
				}
				pairs++
			}
		}
		if pairs == 0 {
			t.Fatalf("seed %d: no timed endpoint pairs to compare", seed)
		}
		avg := relSum / float64(pairs)
		t.Logf("seed %d: %d pairs, MC relErr avg=%.4f worst=%.4f", seed, pairs, avg, relWorst)
		if avg > 0.03 {
			t.Errorf("seed %d: average relative error %v above 3%%", seed, avg)
		}
		if relWorst > 0.08 {
			t.Errorf("seed %d: worst relative error %v above 8%%", seed, relWorst)
		}
	}
}
