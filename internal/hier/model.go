// Package hier is the hierarchical timing layer: block interface
// timing-model extraction and full-chip composition, following the interface
// timing-model literature (Li/Chen/Schlichtmann, "Timing Model Extraction
// for Sequential Circuits Considering Process Variations") carried through
// INSTA's POCV statistical moments.
//
// A compiled block (core.State) is reduced to a BlockModel: its boundary
// pins plus, per scenario,
//
//   - thru arcs    — compressed input-to-output path delay distributions
//     (one positive- and one negative-unate arc per boundary pair, so all
//     four rise/fall path classes are represented exactly),
//   - cons arcs    — the worst boundary-launched internal constraint per
//     input transition, folded into a (delay, required-time) pair,
//   - launch arcs  — the worst internally-launched arrival distribution per
//     output transition, and
//   - internal summaries — per-endpoint internal-launch-only slacks with
//     full exception and CPPR-credit handling, plus their WNS/TNS.
//
// Because POCV path composition is RSS (sigma = sqrt of summed variances), a
// single compressed arc carrying the summed mean and RSS'd sigma of a path
// composes *exactly* like the full chain for any boundary arrival; the model
// error comes only from path *selection* — the compressed arc commits to the
// path that is worst at a zero-variance boundary input, while the flat engine
// re-ranks per arrival. DESIGN.md §16 derives the resulting slack error
// bound: at most NSigma times the boundary arrival sigma per crossing.
//
// Extraction (extract.go) reads every scenario from one lane engine over the
// block's compiled state — a scenario is a lane derating the shared arc
// annotations (core.Scenario.Scale), never a scaled copy of the state. The
// composition engine (compose.go) stitches N block models plus top-level
// interconnect into a tiny circuitops.Tables/core.State per scenario and runs
// the ordinary flat engine over it; flat.go builds the equivalent flattened
// chip, which ChipRun.CompareFlat compiles once and analyzes in one lane
// engine; persist.go serializes models through the internal/snap container
// keyed by the source state's content hash.
package hier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"insta/internal/core"
	"insta/internal/snap"
)

// InPin is one boundary input: the pin id in the source block plus the
// block's original launch distribution (used when the input stays unwired in
// a composition).
type InPin struct {
	Pin       int32
	Mean, Std float64
}

// ScenarioModel holds one scenario's extracted arc values, laid out as flat
// slabs over the boundary (I inputs, O outputs, nEP block endpoints).
//
// Thru values are indexed by thruIdx(i, o, sense, rf): sense 0 is the
// positive-unate arc (output transition rf caused by input transition rf),
// sense 1 the negative-unate arc (caused by 1-rf). Cons and Launch are
// indexed per transition: in*2+rf and out*2+rf. A mean of -Inf (with sigma
// 0) marks "no path", exactly the engine's empty-queue sentinel; a ConsReq
// of +Inf marks "no constraint".
type ScenarioModel struct {
	Scenario core.Scenario

	ThruMean, ThruStd []float64 // I*O*4

	// Cons come in two variants selected by how the input ends up wired in a
	// composition. The exception-aware variant (Cons*) folds the block's
	// (input, endpoint) exceptions and the root-launch CPPR credit — exactly
	// what a flat analysis applies when the input is a real startpoint
	// (unwired). The raw variant (ConsRaw*) folds neither: a wired input's
	// arrivals launch from another block, so block-local exceptions keyed on
	// the input pin never match and the cross-block CPPR credit is zero.
	// Both aggregate over internal (cell) endpoints only; port endpoints are
	// handled by OutReq/PortExc at composition time.
	ConsMean, ConsStd, ConsReq          []float64 // I*2
	ConsRawMean, ConsRawStd, ConsRawReq []float64 // I*2

	LaunchMean, LaunchStd []float64 // O*2

	// IntSlack is every block endpoint's internal-launch-only slack (full
	// exception and CPPR handling), independent of boundary arrivals and
	// therefore exact. WNSInt/TNSInt summarize it engine-style (floored at
	// zero / sum of negatives).
	IntSlack       []float64
	WNSInt, TNSInt float64
}

// BlockModel is the interface timing model of one block: boundary pins,
// per-scenario compressed arcs, and the content hash of the source state it
// was extracted from (the cache invalidation key — edit a block and exactly
// its model misses).
type BlockModel struct {
	Design         string
	Hash           string
	Period, NSigma float64
	TopK           int

	// Source dimensions, recorded for sanity checks at recovery time.
	SourcePins, SourceArcs int

	Ins   []InPin
	Outs  []int32 // boundary output pin ids in the source block
	EpPin []int32 // every block endpoint pin id, aligned with IntSlack

	// OutReq is each boundary output's endpoint base required time per
	// transition (O*2), scenario-independent like every required time. In a
	// composition an unwired output keeps its endpoint check (flat keeps the
	// port's EP row); a wired output loses it (flat drops the row — the path
	// continues into the next block).
	OutReq []float64

	// PortExc replicates the block's (boundary input, boundary output)
	// exception pairs so compositions can re-key them onto top-graph pins:
	// they apply exactly when the input is unwired (then it is the
	// startpoint, as in flat) and are inert otherwise.
	PortExc []PortExc

	Scen []ScenarioModel
}

// PortExc is one boundary-to-boundary exception: input index In, output
// index Out, with the compiled sdc adjustment.
type PortExc struct {
	In, Out int32
	False   bool
	Cycles  int32
}

// thruIdx locates one thru value: input i, output o, sense x (0 = positive
// unate, 1 = negative), output transition rf.
func thruIdx(nOuts, i, o, x, rf int) int { return ((i*nOuts+o)*2+x)*2 + rf }

// Thru returns the (mean, std) of the compressed i→o arc with sense x for
// output transition rf.
func (s *ScenarioModel) Thru(nOuts, i, o, x, rf int) (mean, std float64) {
	k := thruIdx(nOuts, i, o, x, rf)
	return s.ThruMean[k], s.ThruStd[k]
}

// Boundary infers a compiled block's boundary pins from its SP/EP tables:
// inputs are startpoints bound to the clock-tree root (ports — flop clock
// pins bind to leaf nodes), outputs are endpoints with an infinite hold
// requirement (only cell endpoints carry finite hold checks).
func Boundary(st *core.State) (ins []InPin, outs []int32) {
	for i := range st.SpPin {
		if st.SpNode[i] == 0 {
			ins = append(ins, InPin{Pin: st.SpPin[i], Mean: st.SpMean[i], Std: st.SpStd[i]})
		}
	}
	for i := range st.EpPin {
		if math.IsInf(st.EpHold[0][i], 1) && math.IsInf(st.EpHold[1][i], 1) {
			outs = append(outs, st.EpPin[i])
		}
	}
	return ins, outs
}

// NormScenarios normalizes a scenario list: nil or empty means the single
// nominal (all scales 1) scenario, so hashing and extraction agree on what
// "no scenarios" means.
func NormScenarios(scns []core.Scenario) []core.Scenario {
	if len(scns) == 0 {
		return []core.Scenario{{Name: "nominal", DelayScale: 1, SigmaScale: 1, RCScale: 1}}
	}
	return scns
}

// StateHash content-addresses a model's inputs: the full compiled state (via
// its canonical snapshot encoding), the scenario block, and the extraction
// Top-K. Any block edit — an arc annotation, the netlist structure, an SP/EP
// attribute, a scenario derate — lands in the encoding and flips the hash,
// so re-extraction of an unchanged block hits the cache and an edited block
// invalidates exactly its own model.
func StateHash(st *core.State, scns []core.Scenario, topK int) string {
	h := sha256.New()
	h.Write([]byte("insta-hier-model-v1\x00"))
	h.Write(snap.Encode(st, NormScenarios(scns), ""))
	var tk [8]byte
	binary.LittleEndian.PutUint64(tk[:], uint64(topK))
	h.Write(tk[:])
	return hex.EncodeToString(h.Sum(nil))
}
