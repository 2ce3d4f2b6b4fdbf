package exp

import (
	"fmt"
	"io"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/place"
)

// TableIIIRow is one placement benchmark's three-flow comparison.
type TableIIIRow struct {
	Design string
	Cells  int
	Pins   int

	DP    place.Result // wirelength+density only
	NW    place.Result // DP4.0-style net weighting
	Insta place.Result // INSTA-Place

	HPWLvsNW float64 // (Insta.HPWL - NW.HPWL) / NW.HPWL
	TNSvsNW  float64 // TNS improvement fraction vs NW (positive = better)
}

// TableIII runs the placement study over the named superblue-like presets.
// Each flow starts from an identical freshly generated design and random
// initial placement.
func TableIII(w io.Writer, names []string, iterations int, opt core.Options) ([]TableIIIRow, error) {
	fprintf(w, "TABLE III: timing-driven placement after legalization\n")
	fprintf(w, "%-12s %8s | %10s %12s | %10s %12s | %10s %12s %18s\n",
		"benchmark", "#cells", "DP HPWL", "DP TNS", "NW HPWL", "NW TNS", "IP HPWL", "IP TNS", "IP vs NW (HPWL,TNS)")
	var rows []TableIIIRow
	var sumH, sumT float64
	for _, name := range names {
		spec, err := bench.SuperblueSpec(name)
		if err != nil {
			return nil, err
		}
		row, err := tableIIIRow(spec, iterations, opt)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", name, err)
		}
		rows = append(rows, row)
		sumH += row.HPWLvsNW
		sumT += row.TNSvsNW
		fprintf(w, "%-12s %8d | %10.0f %12.1f | %10.0f %12.1f | %10.0f %12.1f   (%+5.1f%%, %+5.1f%%)\n",
			row.Design, row.Cells,
			row.DP.HPWL, row.DP.TNS, row.NW.HPWL, row.NW.TNS,
			row.Insta.HPWL, row.Insta.TNS, 100*row.HPWLvsNW, -100*row.TNSvsNW)
	}
	if len(rows) > 0 {
		fprintf(w, "avg INSTA-Place vs net weighting: HPWL %+0.1f%%, TNS %+0.1f%%\n",
			100*sumH/float64(len(rows)), -100*sumT/float64(len(rows)))
	}
	return rows, nil
}

func tableIIIRow(spec bench.Spec, iterations int, opt core.Options) (TableIIIRow, error) {
	runMode := func(mode place.Mode) (place.Result, error) {
		s, err := Build(spec)
		if err != nil {
			return place.Result{}, err
		}
		var eng *core.Engine
		if mode == place.ModeInsta {
			// Placement uses a hot LSE temperature so gradient spreads over
			// the whole violating cone (sizing uses tau=0.01 for pinpointing;
			// placement wants coverage, see DESIGN.md).
			pOpt := opt
			pOpt.TopK, pOpt.Tau = 2, 60
			eng, err = core.NewEngineFromState(s.State, pOpt)
			if err != nil {
				return place.Result{}, err
			}
			defer eng.Close()
		}
		cfg := place.DefaultConfig(mode)
		if iterations > 0 {
			cfg.Iterations = iterations
		}
		p, err := place.New(s.Ref, eng, cfg)
		if err != nil {
			return place.Result{}, err
		}
		return p.Run(), nil
	}

	row := TableIIIRow{Design: spec.Name}
	s, err := bench.Generate(spec)
	if err != nil {
		return row, err
	}
	row.Cells = s.D.NumCells()
	row.Pins = s.D.NumPins()

	if row.DP, err = runMode(place.ModePlain); err != nil {
		return row, err
	}
	if row.NW, err = runMode(place.ModeNetWeight); err != nil {
		return row, err
	}
	if row.Insta, err = runMode(place.ModeInsta); err != nil {
		return row, err
	}
	if row.NW.HPWL > 0 {
		row.HPWLvsNW = (row.Insta.HPWL - row.NW.HPWL) / row.NW.HPWL
	}
	if row.NW.TNS < 0 {
		row.TNSvsNW = (row.Insta.TNS - row.NW.TNS) / -row.NW.TNS
	} else if row.Insta.TNS >= row.NW.TNS {
		row.TNSvsNW = 0
	}
	return row, nil
}

// Fig9Result is the per-phase runtime breakdown of one timing-refresh
// placement iteration for the two timing-driven flows.
type Fig9Result struct {
	Design string
	NW     place.Breakdown
	Insta  place.Breakdown
}

// Fig9 measures the Fig. 9 breakdown on the named benchmark (the paper uses
// superblue10, the largest).
func Fig9(w io.Writer, name string, iterations int, opt core.Options) (*Fig9Result, error) {
	spec, err := bench.SuperblueSpec(name)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Design: name}

	run := func(mode place.Mode) (place.Breakdown, error) {
		s, err := Build(spec)
		if err != nil {
			return place.Breakdown{}, err
		}
		var eng *core.Engine
		if mode == place.ModeInsta {
			pOpt := opt
			pOpt.TopK, pOpt.Tau = 2, 60
			eng, err = core.NewEngineFromState(s.State, pOpt)
			if err != nil {
				return place.Breakdown{}, err
			}
			defer eng.Close()
		}
		cfg := place.DefaultConfig(mode)
		if iterations > 0 {
			cfg.Iterations = iterations
		}
		p, err := place.New(s.Ref, eng, cfg)
		if err != nil {
			return place.Breakdown{}, err
		}
		return p.Run().LastBreakdown, nil
	}
	if res.NW, err = run(place.ModeNetWeight); err != nil {
		return nil, err
	}
	if res.Insta, err = run(place.ModeInsta); err != nil {
		return nil, err
	}

	fprintf(w, "FIGURE 9: timing-update iteration breakdown on %s\n", name)
	fprintf(w, "%-12s %12s %12s %12s %12s %12s\n", "flow", "timer", "transfer", "weights", "step", "total")
	for _, row := range []struct {
		name string
		b    place.Breakdown
	}{{"net-weight", res.NW}, {"INSTA-Place", res.Insta}} {
		fprintf(w, "%-12s %12s %12s %12s %12s %12s\n", row.name,
			row.b.Timer.Round(time.Microsecond), row.b.Transfer.Round(time.Microsecond),
			row.b.Weights.Round(time.Microsecond), row.b.Step.Round(time.Microsecond),
			row.b.Total().Round(time.Microsecond))
	}
	if res.NW.Total() > 0 {
		fprintf(w, "INSTA-Place iteration overhead vs net weighting: %.0f%%\n",
			100*(float64(res.Insta.Total())/float64(res.NW.Total())-1))
	}
	return res, nil
}
