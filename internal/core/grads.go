package core

// This file maps raw arc gradients onto the objects the PD applications
// optimize: stages (a cell plus its driven net) for gate sizing, and net
// arcs for timing-driven placement (paper §III-H/I).

// StageGradient is the aggregated timing gradient of one cell's stage: the
// gradient sum of its cell arcs and the net arcs it drives (paper §III-H).
// Grad is ≤ 0; larger magnitude means more TNS leverage.
type StageGradient struct {
	Cell int32
	Grad float64
}

// StageGradients aggregates the last Backward's arc gradients per stage and
// returns the stages with non-zero gradient, in ascending cell order. The
// arc→stage map is cached; accumulation walks arcs in id order into a dense
// per-cell buffer, so the output is deterministic (the map-based original
// iterated in random order, making float sums run-dependent). This is the
// ranking signal INSTA-Size sorts by magnitude.
func (e *Engine) StageGradients() []StageGradient {
	if e.arcStage == nil {
		e.arcStage = make([]int32, len(e.st.ArcFrom))
		maxCell := int32(-1)
		for arc := range e.st.ArcFrom {
			var cell int32
			if e.st.ArcKind[arc] == 0 {
				cell = e.st.ArcCell[arc]
			} else {
				// Net arc: attribute to the driving cell (-1 when driven by a
				// primary input).
				cell = e.ownerOfPin(e.st.ArcFrom[arc])
			}
			e.arcStage[arc] = cell
			if cell > maxCell {
				maxCell = cell
			}
		}
		e.stageAcc = make([]float64, maxCell+1)
	}
	acc := e.stageAcc
	clear(acc)
	for arc := range e.st.ArcFrom {
		if cell := e.arcStage[arc]; cell >= 0 {
			acc[cell] += e.TimingGradient(int32(arc))
		}
	}
	var out []StageGradient
	for c, g := range acc {
		if g != 0 {
			out = append(out, StageGradient{Cell: int32(c), Grad: g})
		}
	}
	return out
}

// ownerOfPin returns the cell owning pin p, derived from cell-arc endpoints
// (-1 for port pins and pins not touched by any cell arc).
func (e *Engine) ownerOfPin(p int32) int32 {
	if e.pinOwner == nil {
		e.pinOwner = make([]int32, e.st.NumPins)
		for i := range e.pinOwner {
			e.pinOwner[i] = -1
		}
		for arc := range e.st.ArcFrom {
			if e.st.ArcKind[arc] != 0 {
				continue
			}
			e.pinOwner[e.st.ArcFrom[arc]] = e.st.ArcCell[arc]
			e.pinOwner[e.st.ArcTo[arc]] = e.st.ArcCell[arc]
		}
	}
	return e.pinOwner[p]
}

// NetArcGrad carries one interconnect arc's timing gradient together with
// its driver and sink pins — the (f_k, t_k, g_k) triples of the paper's
// placement objective (Eq. 7).
type NetArcGrad struct {
	Arc      int32
	From, To int32
	Net      int32
	Grad     float64 // ≤ 0
}

// NetArcGradients returns every net arc with non-zero timing gradient from
// the last Backward call.
func (e *Engine) NetArcGradients() []NetArcGrad {
	var out []NetArcGrad
	for arc := range e.st.ArcFrom {
		if e.st.ArcKind[arc] != 1 {
			continue
		}
		g := e.TimingGradient(int32(arc))
		if g == 0 {
			continue
		}
		out = append(out, NetArcGrad{
			Arc: int32(arc), From: e.st.ArcFrom[arc], To: e.st.ArcTo[arc],
			Net: e.st.ArcNet[arc], Grad: g,
		})
	}
	return out
}
