// Buffering example: INSTA-Buffer, a prototype of the paper's stated future
// work (§V). Timing gradients from INSTA's backward kernel rank the stages
// hurting TNS the most; each critical driver's heaviest side branch gets a
// buffer previewed in a structural ECO session — localized re-levelization
// and a cone re-propagation, never a rebuild — and only TNS improvements
// commit.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/rc"
	"insta/internal/refsta"
	"insta/internal/server"
	"insta/internal/sizing"
)

func main() {
	// A wire-dominated design: heavy RC and a spread-out random placement,
	// so long unbuffered branches carry most of the violation.
	wire := rc.DefaultParams()
	wire.RPerUnit, wire.CPerUnit = 0.15, 0.15
	b, err := bench.Generate(bench.Spec{
		Name: "buffering-demo", Seed: 11, Tech: liberty.TechN3(),
		Groups: 3, FFsPerGroup: 16, Layers: 5, Width: 16,
		CrossFrac: 0.12, NumPIs: 6, NumPOs: 6,
		Period: 1, Uncertainty: 10, Die: 260, Wire: &wire,
		VioFrac: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design: %d cells, %d nets, die %.0f sites\n",
		b.D.NumCells(), len(b.D.Nets), 260.0)

	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	e, err := core.NewEngine(circuitops.Extract(ref), core.Options{TopK: 4, Tau: 0.01, Workers: runtime.NumCPU()})
	if err != nil {
		log.Fatal(err)
	}
	mgr := server.NewManager(e, ref, server.Options{MaxSessions: 2})
	defer mgr.Close()
	wnsBefore, tnsBefore := mgr.BaseWNS(), mgr.BaseTNS()

	res := sizing.InstaBuffer(mgr, sizing.DefaultBufferConfig())
	fmt.Printf("before: WNS %9.2f ps  TNS %12.2f ps\n", wnsBefore, tnsBefore)
	fmt.Printf("after:  WNS %9.2f ps  TNS %12.2f ps\n", res.WNS, res.TNS)
	fmt.Printf("inserted %d buffers (%d previewed) over %d gradient rounds in %v\n",
		res.Inserted, res.Previewed, res.Rounds, res.Runtime.Round(time.Millisecond))
}
