package core

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/liberty"
	"insta/internal/num"
	"insta/internal/refsta"
)

// harness bundles a generated design with its reference engine and
// extraction tables.
type harness struct {
	b   *bench.Design
	ref *refsta.Engine
	tab *circuitops.Tables
}

func buildHarness(t testing.TB, spec bench.Spec) *harness {
	t.Helper()
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &harness{b: b, ref: ref, tab: circuitops.Extract(ref)}
}

func testSpec(seed int64) bench.Spec {
	return bench.Spec{
		Name: "coretest", Seed: seed, Tech: liberty.TechN3(),
		Groups: 3, FFsPerGroup: 8, Layers: 5, Width: 8,
		CrossFrac: 0.15, NumPIs: 4, NumPOs: 4,
		Period: 540, Uncertainty: 10, FalsePaths: 3, Multicycles: 2, Die: 100,
	}
}

// timedSlacks filters +Inf (fully false-pathed) endpoints out of both series.
func timedSlacks(ref, got []float64) (a, b []float64) {
	for i := range ref {
		if math.IsInf(ref[i], 0) || math.IsInf(got[i], 0) {
			continue
		}
		a = append(a, ref[i])
		b = append(b, got[i])
	}
	return a, b
}

// TestExactWithLargeK is the core claim: with K at least the number of
// startpoints, INSTA's Top-K propagation is exact and reproduces the
// reference engine's endpoint slacks bit-for-bit (up to float noise).
func TestExactWithLargeK(t *testing.T) {
	h := buildHarness(t, testSpec(21))
	k := len(h.tab.SPs) // unbounded in effect
	e, err := NewEngine(h.tab, Options{TopK: k, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Run()
	want := h.ref.EndpointSlacks()
	if len(got) != len(want) {
		t.Fatalf("ep count %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.IsInf(want[i], 1) && math.IsInf(got[i], 1) {
			continue
		}
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("ep %d: INSTA %v != ref %v", i, got[i], want[i])
		}
	}
}

func TestUntimedEndpointsAgree(t *testing.T) {
	h := buildHarness(t, testSpec(22))
	e, err := NewEngine(h.tab, Options{TopK: len(h.tab.SPs), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Run()
	want := h.ref.EndpointSlacks()
	for i := range want {
		if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) {
			t.Errorf("ep %d: untimed disagreement (ref %v, insta %v)", i, want[i], got[i])
		}
	}
}

// TestTopKTradeoff reproduces the Fig. 6 phenomenon in miniature: K=1 keeps
// high but imperfect correlation; growing K monotonically reduces worst
// mismatch until exactness.
func TestTopKTradeoff(t *testing.T) {
	h := buildHarness(t, testSpec(23))
	ref := h.ref.EndpointSlacks()
	worst := func(k int) float64 {
		e, err := NewEngine(h.tab, Options{TopK: k, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Run()
		a, b := timedSlacks(ref, got)
		ms, err := num.Mismatch(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ms.Worst
	}
	w1, w4, wAll := worst(1), worst(4), worst(len(h.tab.SPs))
	if wAll > 1e-9 {
		t.Errorf("exact K still mismatches: %v", wAll)
	}
	if w4 > w1+1e-9 {
		t.Errorf("K=4 worse than K=1: %v vs %v", w4, w1)
	}
	// K=1 must err pessimistic-or-equal per endpoint? Not necessarily
	// (credit of the kept startpoint may exceed the critical one's), but the
	// slack INSTA reports can never be *below* the true minimum by more than
	// the credit range; sanity: correlation stays high.
	e1, _ := NewEngine(h.tab, Options{TopK: 1, Workers: 1})
	got := e1.Run()
	a, b := timedSlacks(ref, got)
	r, err := num.Pearson(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.95 {
		t.Errorf("K=1 correlation %v too low", r)
	}
}

// TestK1SlackNeverBelowTruth: with K=1, INSTA keeps the max-arrival
// startpoint; the true endpoint slack minimizes over all startpoints, so the
// true slack can only be lower or equal when credits are equal... the credit
// term breaks strict ordering, so instead assert the documented bound: the
// K=1 slack differs from truth by at most the endpoint's maximum possible
// credit (2*nsigma*sqrt(max clock var)).
func TestK1SlackBoundedByCreditRange(t *testing.T) {
	h := buildHarness(t, testSpec(24))
	var maxVar float64
	for _, n := range h.tab.ClockNodes {
		if n.CumVar > maxVar {
			maxVar = n.CumVar
		}
	}
	bound := 2*h.tab.NSigma*math.Sqrt(maxVar) + 1e-9
	e, _ := NewEngine(h.tab, Options{TopK: 1, Workers: 1})
	got := e.Run()
	ref := h.ref.EndpointSlacks()
	a, b := timedSlacks(ref, got)
	for i := range a {
		if math.Abs(a[i]-b[i]) > bound {
			t.Fatalf("ep sample %d: |%v - %v| exceeds credit bound %v", i, a[i], b[i], bound)
		}
	}
}

func TestReannotationMatchesReference(t *testing.T) {
	// Commit a batch of resizes in the reference engine, re-extract its
	// delays, re-annotate INSTA, and require exact agreement again — the
	// "re-synchronize with PrimeTime-calculated arc delays" flow (§IV-B).
	h := buildHarness(t, testSpec(25))
	e, err := NewEngine(h.tab, Options{TopK: len(h.tab.SPs), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()

	cl := bench.Changelist(h.b, 5, 10)
	for _, r := range cl {
		if _, err := h.ref.ResizeCell(r.Cell, r.NewLib); err != nil {
			t.Fatal(err)
		}
	}
	h.ref.UpdateTimingFull()
	fresh := circuitops.Extract(h.ref)
	for i, a := range fresh.Arcs {
		e.SetArcDelay(int32(i), liberty.Rise, num.Dist{Mean: a.MeanRise, Std: a.StdRise})
		e.SetArcDelay(int32(i), liberty.Fall, num.Dist{Mean: a.MeanFall, Std: a.StdFall})
	}
	got := e.Run()
	want := h.ref.EndpointSlacks()
	for i := range want {
		if math.IsInf(want[i], 1) && math.IsInf(got[i], 1) {
			continue
		}
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("ep %d after re-annotation: %v != %v", i, got[i], want[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	h := buildHarness(t, testSpec(26))
	es, _ := NewEngine(h.tab, Options{TopK: 8, Workers: 1})
	ep, _ := NewEngine(h.tab, Options{TopK: 8, Workers: 4})
	s := es.Run()
	p := ep.Run()
	for i := range s {
		if s[i] != p[i] {
			t.Fatalf("ep %d: serial %v != parallel %v", i, s[i], p[i])
		}
	}
}

func TestWNSTNSConsistency(t *testing.T) {
	h := buildHarness(t, testSpec(27))
	e, _ := NewEngine(h.tab, Options{TopK: 8, Workers: 1})
	slacks := e.Run()
	var wns, tns float64
	vio := 0
	for _, s := range slacks {
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
			vio++
		}
	}
	if e.WNS() != wns || e.TNS() != tns || e.NumViolations() != vio {
		t.Errorf("metrics: WNS %v/%v TNS %v/%v vio %d/%d",
			e.WNS(), wns, e.TNS(), tns, e.NumViolations(), vio)
	}
}

func TestRejectsBadOptions(t *testing.T) {
	h := buildHarness(t, testSpec(28))
	if _, err := NewEngine(h.tab, Options{TopK: 0}); err == nil {
		t.Error("TopK=0 accepted")
	}
	// A queue deeper than a startpoint index entry's slot field can address is
	// refused by name, before anything is sized by it (where an int can be
	// that large at all).
	if big := int64(maxTopK) + 1; big <= math.MaxInt {
		st, err := Compile(h.tab)
		if err != nil {
			t.Fatal(err)
		}
		_, cold := NewEngine(h.tab, Options{TopK: int(big)})
		_, warm := NewEngineFromState(st, Options{TopK: int(big)})
		for _, err := range []error{cold, warm} {
			if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxTopK)) {
				t.Errorf("TopK=%d: error %v does not name the limit %d", big, err, maxTopK)
			}
		}
	}
	h.tab.Arcs[0].To = -3
	if _, err := NewEngine(h.tab, Options{TopK: 4}); err == nil {
		t.Error("corrupt tables accepted")
	}
}

// --- Top-K queue unit properties (Algorithm 2) ---

type qEntry struct {
	arr float64
	sp  int32
}

// bruteTopK computes the reference answer: per sp keep the max arrival, then
// take the K largest.
func bruteTopK(entries []qEntry, k int) []qEntry {
	best := map[int32]float64{}
	for _, e := range entries {
		if v, ok := best[e.sp]; !ok || e.arr > v {
			best[e.sp] = e.arr
		}
	}
	out := make([]qEntry, 0, len(best))
	for sp, a := range best {
		out = append(out, qEntry{arr: a, sp: sp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].arr != out[j].arr {
			return out[i].arr > out[j].arr
		}
		return out[i].sp < out[j].sp
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestInsertTopKMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		n := rng.Intn(40)
		q := newTestQueue(k)
		var fed []qEntry
		for i := 0; i < n; i++ {
			a := math.Round(rng.Float64()*1000) / 10 // coarse grid avoids fp ties
			sp := int32(rng.Intn(8))
			fed = append(fed, qEntry{arr: a, sp: sp})
			q.insert(a, 0, sp)
		}
		want := bruteTopK(fed, k)
		// Collect non-empty queue entries.
		var got []qEntry
		for i := 0; i < k; i++ {
			if q.sp[i] == noSP {
				break
			}
			got = append(got, qEntry{arr: q.key(i), sp: q.sp[i]})
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Arrival values must match; at equal arrivals the kept sp may
			// legitimately differ from brute force's tie-break.
			if got[i].arr != want[i].arr {
				return false
			}
		}
		// Descending order and unique startpoints.
		seen := map[int32]bool{}
		for i, g := range got {
			if i > 0 && got[i-1].arr < g.arr {
				return false
			}
			if seen[g.sp] {
				return false
			}
			seen[g.sp] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInsertTopKUpdateExisting(t *testing.T) {
	q := newTestQueue(3)
	q.insert(10, 0, 1)
	q.insert(20, 0, 2)
	// Update sp 1 upward past sp 2: must bubble to front.
	q.insert(30, 0, 1)
	if q.sp[0] != 1 || q.key(0) != 30 || q.sp[1] != 2 || q.key(1) != 20 || q.n != 2 {
		t.Fatalf("queue after bubble: mean=%v sps=%v n=%d", q.mean, q.sp, q.n)
	}
	// Downward "update" must be ignored.
	q.insert(5, 0, 1)
	if q.key(0) != 30 {
		t.Fatal("smaller arrival overwrote existing startpoint")
	}
}

func TestInsertTopKEviction(t *testing.T) {
	q := newTestQueue(2)
	q.insert(10, 0, 1)
	q.insert(20, 0, 2)
	q.insert(5, 0, 3) // below min: rejected
	if q.sp[0] != 2 || q.sp[1] != 1 {
		t.Fatalf("unexpected queue %v", q.sp)
	}
	q.insert(15, 0, 4) // evicts sp 1
	if q.sp[0] != 2 || q.sp[1] != 4 || q.key(1) != 15 || q.n != 2 {
		t.Fatalf("eviction failed: mean=%v sps=%v n=%d", q.mean, q.sp, q.n)
	}
}

func TestQueueInvariantsAfterPropagation(t *testing.T) {
	// After a full forward pass, every pin's queue must be packed (no gaps),
	// descending by corner arrival, with unique startpoints.
	h := buildHarness(t, testSpec(41))
	e, err := NewEngine(h.tab, Options{TopK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	for p := int32(0); p < int32(e.NumPins()); p++ {
		for rf := 0; rf < 2; rf++ {
			mean, std, sps := e.TopEntries(rf, p)
			if err := checkPacked(mean, std, sps, 1, e.nSigma); err != nil {
				t.Fatalf("pin %d rf %d: %v", p, rf, err)
			}
		}
	}
}

func TestRunIdempotent(t *testing.T) {
	// Propagation must be a pure function of the annotations: running twice
	// yields identical slacks.
	h := buildHarness(t, testSpec(42))
	e, _ := NewEngine(h.tab, Options{TopK: 4, Workers: 1})
	a := append([]float64(nil), e.Run()...)
	b := e.Run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ep %d: %v then %v", i, a[i], b[i])
		}
	}
}

func TestPropagateIncrementalMatchesFull(t *testing.T) {
	h := buildHarness(t, testSpec(61))
	e, err := NewEngine(h.tab, Options{TopK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()

	// Perturb a scattered set of arcs, run incrementally, and compare to a
	// from-scratch full propagation on a twin engine.
	twin, _ := NewEngine(h.tab, Options{TopK: 6, Workers: 1})
	var touched []int32
	for arc := int32(3); arc < int32(e.NumArcs()); arc += 97 {
		for rf := 0; rf < 2; rf++ {
			d := e.ArcDelay(arc, rf)
			d.Mean *= 1.1
			d.Std *= 1.05
			e.SetArcDelay(arc, rf, d)
			twin.SetArcDelay(arc, rf, d)
		}
		touched = append(touched, arc)
	}
	e.PropagateIncremental(touched)
	got := e.EvalSlacks()
	want := twin.Run()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ep %d: incremental %v != full %v", i, got[i], want[i])
		}
	}
}

func TestPropagateIncrementalWithHold(t *testing.T) {
	h := holdHarness(t, 62)
	e, err := NewEngine(h.tab, Options{TopK: 4, Hold: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	twin, _ := NewEngine(h.tab, Options{TopK: 4, Hold: true, Workers: 1})
	arc := int32(7)
	for rf := 0; rf < 2; rf++ {
		d := e.ArcDelay(arc, rf)
		d.Mean += 15
		e.SetArcDelay(arc, rf, d)
		twin.SetArcDelay(arc, rf, d)
	}
	e.PropagateIncremental([]int32{arc})
	gotSetup := e.EvalSlacks()
	gotHold := e.EvalHoldSlacks()
	twin.Run()
	wantSetup := twin.EvalSlacks()
	wantHold := twin.EvalHoldSlacks()
	for i := range wantSetup {
		if gotSetup[i] != wantSetup[i] {
			t.Fatalf("setup ep %d: %v != %v", i, gotSetup[i], wantSetup[i])
		}
		if !(math.IsInf(gotHold[i], 1) && math.IsInf(wantHold[i], 1)) && gotHold[i] != wantHold[i] {
			t.Fatalf("hold ep %d: %v != %v", i, gotHold[i], wantHold[i])
		}
	}
}

func TestPropagateIncrementalEmpty(t *testing.T) {
	h := buildHarness(t, testSpec(63))
	e, _ := NewEngine(h.tab, Options{TopK: 4, Workers: 1})
	before := append([]float64(nil), e.Run()...)
	e.PropagateIncremental(nil)
	after := e.EvalSlacks()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("empty incremental changed state")
		}
	}
}
