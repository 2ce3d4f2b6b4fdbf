package batch

// The overlay machinery (seed / recompute / rebase / commit / freelists) is
// core's and is tested there at S > 1; this file checks what package batch
// adds on top: the scenario-indexed reads and the merged view.

import (
	"testing"

	"insta/internal/core"
)

// pickECOArcs selects a deterministic spread of cell arcs to perturb.
func pickECOArcs(e *Engine, n int) []int32 {
	out := make([]int32, 0, n)
	step := e.NumArcs() / n
	if step == 0 {
		step = 1
	}
	for a := 0; a < e.NumArcs() && len(out) < n; a += step {
		out = append(out, int32(a))
	}
	return out
}

func TestOverlayPreviewMatchesCommit(t *testing.T) {
	tab := buildTables(t, 31)
	opt := core.Options{TopK: 8, Hold: true, Workers: 2}
	e, err := New(tab, DefaultScenarios(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()

	ov := NewOverlay(e)
	for _, a := range pickECOArcs(e, 5) {
		for rf := 0; rf < 2; rf++ {
			m, sd := e.ArcDelay(a, rf)
			ov.SetArcDelay(a, rf, m*1.4+2, sd*1.2)
		}
	}
	ov.Propagate()

	S := e.NumScenarios()
	preview := make([][]float64, S)
	for s := 0; s < S; s++ {
		preview[s] = make([]float64, len(e.Endpoints()))
		for i := range e.Endpoints() {
			preview[s][i] = ov.Slack(s, int32(i))
		}
	}
	pWNS := make([]float64, S)
	pTNS := make([]float64, S)
	for s := 0; s < S; s++ {
		pWNS[s], pTNS[s] = ov.WNS(s), ov.TNS(s)
	}
	pmWNS, pmTNS := ov.MergedWNS(), ov.MergedTNS()
	changed := ov.ChangedEndpoints()
	if len(changed) == 0 {
		t.Fatal("ECO touched no endpoints — test design is vacuous")
	}

	ov.Commit()
	if st := ov.Stats(); st.TouchedArcs != 0 || st.OverlayPins != 0 || st.ChangedEPs != 0 {
		t.Fatalf("commit left overlay state behind: %+v", st)
	}
	for s := 0; s < S; s++ {
		got := e.Slacks(s)
		for i := range got {
			if got[i] != preview[s][i] {
				t.Fatalf("scenario %d ep %d: committed %v != preview %v", s, i, got[i], preview[s][i])
			}
		}
		if e.WNS(s) != pWNS[s] || e.TNS(s) != pTNS[s] {
			t.Fatalf("scenario %d: committed WNS/TNS %v/%v != preview %v/%v",
				s, e.WNS(s), e.TNS(s), pWNS[s], pTNS[s])
		}
	}
	m := e.Merged()
	if m.WNS != pmWNS || m.TNS != pmTNS {
		t.Fatalf("merged WNS/TNS %v/%v != preview %v/%v", m.WNS, m.TNS, pmWNS, pmTNS)
	}
}
