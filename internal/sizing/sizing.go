// Package sizing implements the paper's gate-sizing application (§III-H,
// Table II): INSTA-Size, a gradient-ranked sizer that uses INSTA's backward
// kernel to pinpoint critical stages and the reference engine's estimate_eco
// to choose drive strengths, with commit/rollback and 3-hop neighbourhood
// blocking; and a PrimeTime-style baseline that fixes worst paths first
// using slack information only.
package sizing

import (
	"sort"
	"time"

	"insta/internal/core"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/refsta"
	"insta/internal/server"
)

// Result summarizes one sizing run.
type Result struct {
	WNS           float64 // signoff WNS after the flow (reference engine)
	TNS           float64
	NumViolations int
	CellsSized    int           // distinct cells committed
	BackwardTime  time.Duration // total INSTA backward-kernel time (bRT)
	Runtime       time.Duration // wall-clock of the whole flow
}

// Config tunes INSTA-Size.
type Config struct {
	// GradFrac keeps stages whose |gradient| exceeds GradFrac times the
	// maximum stage |gradient| per round (the paper's "pre-defined
	// threshold").
	GradFrac float64
	// MaxRounds bounds backward/rank/commit rounds.
	MaxRounds int
	// MaxCandidatesPerRound bounds commits attempted per round.
	MaxCandidatesPerRound int
	// BlockHops is the neighbourhood radius blocked around a committed cell
	// (the paper uses 3 to protect estimate_eco's locality assumption).
	BlockHops int
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{GradFrac: 0.02, MaxRounds: 20, MaxCandidatesPerRound: 60, BlockHops: 3}
}

// neighborhood returns all cells within `hops` net-hops of cell c.
func neighborhood(d *netlist.Design, c netlist.CellID, hops int) []netlist.CellID {
	seen := map[netlist.CellID]bool{c: true}
	frontier := []netlist.CellID{c}
	for h := 0; h < hops; h++ {
		var next []netlist.CellID
		for _, cur := range frontier {
			for _, p := range d.Cells[cur].Pins {
				n := d.Pins[p].Net
				if n == netlist.NoNet {
					continue
				}
				visit := func(q netlist.PinID) {
					oc := d.Pins[q].Cell
					if oc == netlist.NoCell || seen[oc] {
						return
					}
					seen[oc] = true
					next = append(next, oc)
				}
				visit(d.Nets[n].Driver)
				for _, s := range d.Nets[n].Sinks {
					visit(s)
				}
			}
		}
		frontier = next
	}
	out := make([]netlist.CellID, 0, len(seen))
	for cc := range seen {
		out = append(out, cc)
	}
	return out
}

// InstaSize runs the INSTA-Size flow: after a one-time initialization
// (ref already extracted into e), each round backpropagates TNS, ranks
// stages by |timing gradient|, and for each candidate stage uses
// estimate_eco to select the drive strength whose predicted INSTA TNS is
// best. The winning swap is committed to the reference engine and INSTA. A
// committed stage blocks its BlockHops-neighbourhood for the round.
//
// The flow is the first in-process client of the serving layer: the engine is
// wrapped in a server.Manager and every candidate is previewed on one
// copy-on-write session (cone-limited overlay propagation) instead of a full
// re-propagation per alternative, with Rollback between alternatives and
// Commit folding the winner into the base, as the round's resync is. Overlay
// previews are bit-identical to committed state, so the accept/reject
// decisions are unchanged — a degrading candidate is simply never committed.
func InstaSize(ref *refsta.Engine, e *core.Engine, cfg Config) Result {
	start := time.Now()
	var bRT time.Duration
	sized := map[netlist.CellID]bool{}
	d := ref.D
	lib := ref.Lib

	mgr := server.NewManager(e, ref, server.Options{MaxSessions: 1})
	sess, err := mgr.Create()
	if err != nil {
		panic("sizing: " + err.Error()) // cap is 1, first create cannot fail
	}
	defer sess.Close()

	curTNS := mgr.BaseTNS()
	for round := 0; round < cfg.MaxRounds; round++ {
		// Re-synchronize INSTA with the reference engine's current arc
		// delays at each round boundary (the cheap Fig. 2 resync), so
		// estimate_eco drift cannot accumulate across rounds: the arcs whose
		// delay moved are one annotation batch, committed on the session.
		var resync []refsta.ArcDelta
		for i := range ref.Arcs {
			if d := ref.Arcs[i].Delay; d != [2]num.Dist{e.ArcDelay(int32(i), 0), e.ArcDelay(int32(i), 1)} {
				resync = append(resync, refsta.ArcDelta{ArcID: int32(i), Delay: d})
			}
		}
		if len(resync) > 0 {
			if _, err := sess.ApplyDeltas(resync); err != nil {
				panic("sizing: resync failed: " + err.Error())
			}
			if _, err := sess.Commit(); err != nil {
				panic("sizing: resync commit failed: " + err.Error())
			}
		}
		// The flow is the manager's one client: nothing evaluates while the
		// backward pass writes the engine's gradient tensors.
		t0 := time.Now()
		e.Backward()
		stages := e.StageGradients()
		bRT += time.Since(t0)
		curTNS = mgr.BaseTNS()
		if len(stages) == 0 {
			break
		}
		sort.Slice(stages, func(i, j int) bool { return stages[i].Grad < stages[j].Grad })
		maxMag := -stages[0].Grad
		if maxMag == 0 {
			break
		}

		blocked := map[netlist.CellID]bool{}
		committed := 0
		improvedAny := false
		for _, st := range stages {
			if committed >= cfg.MaxCandidatesPerRound {
				break
			}
			if -st.Grad < cfg.GradFrac*maxMag {
				break // ranked by magnitude; the rest are below threshold
			}
			c := netlist.CellID(st.Cell)
			if blocked[c] {
				continue
			}
			cur := d.Cells[c].LibCell
			ladder := lib.Siblings(cur)
			// estimate_eco pass: preview each drive on the session overlay
			// (cone-limited propagation over the frozen base) and pick the
			// best predicted TNS.
			bestTNS := curTNS
			var bestLib int32 = -1
			var bestDeltas []refsta.ArcDelta
			for _, alt := range ladder {
				if alt == cur {
					continue
				}
				deltas, err := ref.EstimateECO(c, alt)
				if err != nil {
					continue
				}
				res, err := sess.ApplyDeltas(deltas)
				if err != nil {
					panic("sizing: preview failed: " + err.Error())
				}
				if err := sess.Rollback(); err != nil {
					panic("sizing: rollback failed: " + err.Error())
				}
				if res.TNS > bestTNS {
					bestTNS = res.TNS
					bestLib = alt
					bestDeltas = deltas
				}
			}
			if bestLib < 0 {
				// No alternative improved TNS (paper §III-H would roll a
				// degrading commit back; the preview rejects it up front).
				continue
			}
			// Commit: the winning preview is re-applied and folded into the
			// base (bit-identical to the preview), and the reference engine
			// records the netlist change, kept current so later estimate_eco
			// calls see fresh loads and slews, as the host signoff tool would
			// in a live flow.
			if _, err := sess.ApplyDeltas(bestDeltas); err != nil {
				panic("sizing: commit preview failed: " + err.Error())
			}
			if _, err := ref.ResizeCell(c, bestLib); err != nil {
				if rbErr := sess.Rollback(); rbErr != nil {
					panic("sizing: rollback failed: " + rbErr.Error())
				}
				continue
			}
			ref.UpdateTimingIncremental()
			if _, err := sess.Commit(); err != nil {
				panic("sizing: commit failed: " + err.Error())
			}
			curTNS = bestTNS
			sized[c] = true
			committed++
			improvedAny = true
			for _, b := range neighborhood(d, c, cfg.BlockHops) {
				blocked[b] = true
			}
		}
		if !improvedAny {
			break
		}
	}

	// Signoff with the reference engine on the committed netlist.
	ref.UpdateTimingFull()
	return Result{
		WNS:           ref.WNS(),
		TNS:           ref.TNS(),
		NumViolations: ref.NumViolations(),
		CellsSized:    len(sized),
		BackwardTime:  bRT,
		Runtime:       time.Since(start),
	}
}

// BaselineConfig tunes the PrimeTime-style slack-driven sizer.
type BaselineConfig struct {
	MaxCommits int // total resize attempts budget
	MaxPasses  int // worst-endpoint passes
}

// DefaultBaselineConfig bounds the baseline comparably to INSTA-Size.
func DefaultBaselineConfig() BaselineConfig {
	return BaselineConfig{MaxCommits: 2500, MaxPasses: 400}
}

// BaselineSize emulates the reference tool's default timing-optimization
// loop: repeatedly expand the worst violating endpoint's critical path and
// upsize cells along it, keeping any change that improves that endpoint's
// slack without regressing WNS beyond tolerance. This is slack-local by
// construction — the contrast INSTA-Size's global gradients are measured
// against (it tends to touch many more cells for less TNS gain, as the
// paper's Table II baseline does).
func BaselineSize(ref *refsta.Engine, cfg BaselineConfig) Result {
	start := time.Now()
	sized := map[netlist.CellID]bool{}
	d := ref.D
	lib := ref.Lib
	commits := 0
	triedEndpoint := map[int32]bool{}

	for pass := 0; pass < cfg.MaxPasses && commits < cfg.MaxCommits; pass++ {
		// Worst violating endpoint not yet exhausted.
		slacks := ref.EndpointSlacks()
		worstEP := int32(-1)
		worstSlack := 0.0
		for i, s := range slacks {
			if s < worstSlack && !triedEndpoint[int32(i)] {
				worstSlack, worstEP = s, int32(i)
			}
		}
		if worstEP < 0 {
			break
		}
		path := ref.WorstPath(worstEP)
		improvedEndpoint := false
		for _, step := range path {
			if commits >= cfg.MaxCommits {
				break
			}
			arc := ref.Arcs[step.ArcID]
			if arc.Kind != refsta.CellArc {
				continue
			}
			c := arc.Cell
			up, ok := lib.Resize(d.Cells[c].LibCell, 1)
			if !ok {
				continue
			}
			before := ref.EndpointSlacks()[worstEP]
			old, err := ref.ResizeCell(c, up)
			if err != nil {
				continue
			}
			ref.UpdateTimingIncremental()
			commits++
			after := ref.EndpointSlacks()[worstEP]
			// Keep if the targeted endpoint improved. Collateral TNS damage
			// on other endpoints is invisible to this slack-local criterion —
			// exactly the locality flaw the paper attributes to the
			// reference tool's default engine (§III-I, Table II).
			if after > before+1e-9 {
				sized[c] = true
				improvedEndpoint = true
				continue
			}
			if _, err := ref.ResizeCell(c, old); err != nil {
				panic("sizing: baseline rollback failed: " + err.Error())
			}
			ref.UpdateTimingIncremental()
		}
		if !improvedEndpoint {
			triedEndpoint[worstEP] = true
		}
	}

	ref.UpdateTimingFull()
	return Result{
		WNS:           ref.WNS(),
		TNS:           ref.TNS(),
		NumViolations: ref.NumViolations(),
		CellsSized:    len(sized),
		Runtime:       time.Since(start),
	}
}
