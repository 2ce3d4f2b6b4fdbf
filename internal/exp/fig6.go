package exp

import (
	"io"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/num"
)

// Fig6Result is the Top-K trade-off on one design at one K.
type Fig6Result struct {
	TopK     int
	Corr     float64
	Mismatch num.MismatchStats
	MemoryGB float64
	Disagree int // endpoints untimed by INSTA but timed by the reference
}

// Fig6 reproduces the Fig. 6 study: endpoint slack correlation on the named
// block at each Top-K in ks, from no CPPR resolution (Top-K=1) up.
func Fig6(w io.Writer, blockName string, ks []int, opt core.Options) ([]Fig6Result, error) {
	spec, err := bench.BlockSpec(blockName)
	if err != nil {
		return nil, err
	}
	s, err := Build(spec)
	if err != nil {
		return nil, err
	}
	refSlacks := s.Ref.EndpointSlacks()
	fprintf(w, "FIGURE 6: Top-K trade-off on %s (%d endpoints)\n", blockName, len(refSlacks))
	fprintf(w, "%6s %12s %22s %12s %10s\n", "TopK", "ep corr.", "mismatch(avg,wst) ps", "memory(GB)", "disagree")

	var out []Fig6Result
	for _, k := range ks {
		kOpt := opt
		kOpt.TopK = k
		e, err := core.NewEngineFromState(s.State, kOpt)
		if err != nil {
			return nil, err
		}
		r, ms, _, dis, err := Correlate(refSlacks, e.Run())
		mem := e.MemoryBytes()
		e.Close()
		if err != nil {
			return nil, err
		}
		res := Fig6Result{TopK: k, Corr: r, Mismatch: ms, MemoryGB: float64(mem) / (1 << 30), Disagree: dis}
		out = append(out, res)
		fprintf(w, "%6d %12.6f       (%.2e, %6.2f) %12.3f %10d\n", k, r, ms.Avg, ms.Worst, res.MemoryGB, dis)
	}
	return out, nil
}
