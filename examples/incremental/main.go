// Incremental evaluation example: use INSTA as the fast timing evaluator in
// a sizing loop (the paper's first application, Figs. 7-8). Each iteration
// commits a batch of gate resizes; INSTA re-annotates the affected arcs via
// estimate_eco and re-propagates the full graph, while the reference engine
// runs incremental update_timing as the accuracy anchor.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/exp"
)

func main() {
	spec, err := bench.BlockSpec("block-5")
	if err != nil {
		log.Fatal(err)
	}
	pt, err := exp.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	e, err := core.NewEngine(pt.Tab, core.Options{TopK: 32, Workers: runtime.NumCPU()})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	e.Run()
	fmt.Printf("%s: %d pins; initial TNS %.1f ps (INSTA) vs %.1f ps (reference)\n",
		spec.Name, pt.B.D.NumPins(), e.TNS(), pt.Ref.TNS())

	for iter, batch := range bench.BatchedChangelist(pt.B, 9, 6, 60) {
		// estimate_eco for the whole batch against pre-commit state.
		t0 := time.Now()
		for _, rz := range batch {
			deltas, err := pt.Ref.EstimateECO(rz.Cell, rz.NewLib)
			if err != nil {
				log.Fatal(err)
			}
			for _, dl := range deltas {
				e.SetArcDelay(dl.ArcID, 0, dl.Delay[0])
				e.SetArcDelay(dl.ArcID, 1, dl.Delay[1])
			}
		}
		tAnnotate := time.Since(t0)

		// INSTA full-graph evaluation.
		t0 = time.Now()
		e.Run()
		tInsta := time.Since(t0)

		// Commit to the reference engine and compare.
		for _, rz := range batch {
			if _, err := pt.Ref.ResizeCell(rz.Cell, rz.NewLib); err != nil {
				log.Fatal(err)
			}
		}
		t0 = time.Now()
		pt.Ref.UpdateTimingIncremental()
		tRef := time.Since(t0)

		r, ms, _, _, err := exp.Correlate(pt.Ref.EndpointSlacks(), e.Slacks())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iter %d: INSTA %7v (annotate %6v) vs reference incremental %8v | corr %.6f worst drift %.2f ps\n",
			iter, tInsta.Round(time.Microsecond), tAnnotate.Round(time.Microsecond),
			tRef.Round(time.Microsecond), r, ms.Worst)
	}
	fmt.Println("\ndrift stays bounded; a full re-extraction (circuitops.Extract + core.Compile) resets it to zero at any point")
}
