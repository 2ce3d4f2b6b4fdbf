package batch

import (
	"math"

	"insta/internal/core"
	"insta/internal/num"
)

// Overlay is a core.Overlay over a scenario-batched base: a serving session
// re-annotates a handful of arcs in nominal units and reads the resulting
// slacks in every scenario — one cone re-propagation carries all corners.
// Propagate, Reset, Rebase, RebaseStructural, Commit and the changed-endpoint
// accessors are core's; the methods below re-index the per-lane reads by
// scenario and add the merged (worst-corner) view.
type Overlay struct {
	*core.Overlay
}

// NewOverlay creates an empty overlay over e. The base must be fully
// propagated and slack-evaluated (Run) and stay frozen while the overlay
// evaluates.
func NewOverlay(e *Engine) *Overlay {
	return &Overlay{core.NewOverlay(e.Engine)}
}

// SetArcDelay annotates one arc's *nominal* delay for output transition rf
// in the overlay only; every scenario sees it through its scale factors.
// Call Propagate after a batch.
func (o *Overlay) SetArcDelay(arc int32, rf int, mean, std float64) {
	o.Overlay.SetArcDelay(arc, rf, num.Dist{Mean: mean, Std: std})
}

// Slack returns endpoint i's slack in scenario s as seen through the
// overlay.
func (o *Overlay) Slack(s int, i int32) float64 { return o.LaneSlack(s, i) }

// WNS returns scenario s's worst negative slack under the overlay.
func (o *Overlay) WNS(s int) float64 { return o.LaneWNS(s) }

// TNS returns scenario s's total negative slack under the overlay.
func (o *Overlay) TNS(s int) float64 { return o.LaneTNS(s) }

// MergedSlack returns endpoint i's worst slack across scenarios as seen
// through the overlay.
func (o *Overlay) MergedSlack(i int32) float64 {
	best := math.Inf(1)
	for s := 0; s < o.Base().Lanes(); s++ {
		if sl := o.LaneSlack(s, i); sl < best {
			best = sl
		}
	}
	return best
}

// MergedWNS returns the merged (per-endpoint worst scenario) WNS under the
// overlay, scanning endpoints in index order like the base engine.
func (o *Overlay) MergedWNS() float64 {
	w := 0.0
	for i := range o.Base().Endpoints() {
		if sl := o.MergedSlack(int32(i)); sl < w {
			w = sl
		}
	}
	return w
}

// MergedTNS returns the merged TNS under the overlay.
func (o *Overlay) MergedTNS() float64 {
	t := 0.0
	for i := range o.Base().Endpoints() {
		if sl := o.MergedSlack(int32(i)); sl < 0 {
			t += sl
		}
	}
	return t
}
