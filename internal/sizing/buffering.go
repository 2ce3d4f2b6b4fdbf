package sizing

// INSTA-Buffer: a gradient-guided buffer-insertion flow driven end-to-end
// through the serving layer's structural session API. Where InstaSize swaps
// drive strengths via annotation overlays, InstaBuffer edits the timing graph
// itself: each candidate splices a buffer into a heavily loaded side branch
// of a critical driver's output net (the driver sheds the branch and every
// other sink rides the reduced load), previewed by one localized
// re-levelization + cone re-propagation in the session's structural working
// set and committed by an engine swap — never a full rebuild.

import (
	"time"

	"insta/internal/netlist"
	"insta/internal/refsta"
	"insta/internal/server"
)

// BufferConfig tunes InstaBuffer.
type BufferConfig struct {
	// MaxBuffers is the total insertion budget.
	MaxBuffers int
	// MaxRounds bounds backward/rank/insert rounds.
	MaxRounds int
	// TopStages is how many gradient-ranked stages each round considers as
	// candidate drivers.
	TopStages int
	// BufCell names the buffer library cell to splice in.
	BufCell string
	// Frac is the insertion position along the wire (0 = at the driver);
	// smaller keeps less wire on the driver side, shedding more load.
	Frac float64
	// MinFanout skips driver nets below this sink count — buffering a
	// single-sink net only lengthens its one path.
	MinFanout int
}

// DefaultBufferConfig mirrors the serving defaults.
func DefaultBufferConfig() BufferConfig {
	return BufferConfig{MaxBuffers: 40, MaxRounds: 8, TopStages: 64, BufCell: "BUF_X4", Frac: 0.3, MinFanout: 2}
}

// BufferResult summarizes one buffering run. WNS/TNS are the committed INSTA
// base figures: inserted buffers have no instance in the signoff netlist, so
// the reference engine cannot re-time the buffered graph (the structural
// session's differential tests pin the committed figures to a cold compile of
// the edited tables instead).
type BufferResult struct {
	WNS       float64
	TNS       float64
	Inserted  int // buffers committed
	Previewed int // candidate insertions previewed
	Rounds    int
	Runtime   time.Duration
}

// InstaBuffer runs the flow against an existing manager: each round ranks
// stages by |timing gradient| (INSTA's backward kernel on the committed
// base), picks each critical driver's highest-capacitance side branch, and
// previews splicing cfg.BufCell into it through one structural session —
// EstimateBuffer prices the buffer's gate delay and the driver's
// re-annotation at reduced load, and the session's incremental
// re-levelization prices the result in every corner. Improvements commit
// (engine swap); everything else rolls back. Strictly TNS-greedy, like
// InstaSize.
func InstaBuffer(mgr *server.Manager, cfg BufferConfig) BufferResult {
	start := time.Now()
	ref := mgr.Ref()
	res := BufferResult{}
	sess, err := mgr.Create()
	if err != nil {
		panic("buffering: " + err.Error())
	}
	defer sess.Close()

	buffered := map[int32]bool{} // net arcs already split (arc ids are permanent)
	for round := 0; round < cfg.MaxRounds && res.Inserted < cfg.MaxBuffers; round++ {
		res.Rounds++
		insertedThisRound := false
		for _, st := range mgr.Gradients(cfg.TopStages) {
			if res.Inserted >= cfg.MaxBuffers {
				break
			}
			arc := candidateBranch(ref, netlist.CellID(st.Cell), cfg.MinFanout, buffered)
			if arc < 0 {
				continue
			}
			curTNS := mgr.BaseTNS()
			view, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{
				{Op: "buffer", Arc: arc, Lib: cfg.BufCell, Frac: cfg.Frac},
			}})
			if err != nil {
				// Unbufferable target (e.g. estimate rejected it); don't retry.
				buffered[arc] = true
				continue
			}
			res.Previewed++
			if view.View.TNS > curTNS {
				if _, err := sess.Commit(); err != nil {
					panic("buffering: commit failed: " + err.Error())
				}
				buffered[arc] = true
				res.Inserted++
				insertedThisRound = true
			} else if err := sess.Rollback(); err != nil {
				panic("buffering: rollback failed: " + err.Error())
			}
		}
		if !insertedThisRound {
			break
		}
	}
	res.WNS = mgr.BaseWNS()
	res.TNS = mgr.BaseTNS()
	res.Runtime = time.Since(start)
	return res
}

// candidateBranch picks the buffer-insertion target for critical cell c: the
// highest-capacitance branch of its fan-out net with at least minFanout
// sinks, skipping already-buffered arcs. Returns -1 when c has no useful
// target.
func candidateBranch(ref *refsta.Engine, c netlist.CellID, minFanout int, buffered map[int32]bool) int32 {
	d := ref.D
	if int(c) < 0 || int(c) >= len(d.Cells) {
		return -1
	}
	best := int32(-1)
	bestC := 0.0
	for _, p := range d.Cells[c].Pins {
		n := d.Pins[p].Net
		if n == netlist.NoNet || d.Nets[n].Driver != p {
			continue // input pin, or not this cell's output
		}
		if len(d.Nets[n].Sinks) < minFanout {
			continue
		}
		for si := range d.Nets[n].Sinks {
			arc := ref.NetArc(n, si)
			if arc < 0 || buffered[arc] {
				continue
			}
			if bc := ref.Par.Nets[n].Branch[si].C; bc > bestC {
				bestC, best = bc, arc
			}
		}
	}
	return best
}
