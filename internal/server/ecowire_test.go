package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/num"
)

// sameECORequest compares two requests field by field, floats by their bits.
func sameECORequest(a, b ECORequest) bool {
	if !reflect.DeepEqual(a.Resizes, b.Resizes) || len(a.Arcs) != len(b.Arcs) || (a.Arcs == nil) != (b.Arcs == nil) {
		return false
	}
	bits := func(d num.Dist) [2]uint64 { return [2]uint64{math.Float64bits(d.Mean), math.Float64bits(d.Std)} }
	for i, x := range a.Arcs {
		y := b.Arcs[i]
		if x.Arc != y.Arc || bits(x.Rise) != bits(y.Rise) || bits(x.Fall) != bits(y.Fall) {
			return false
		}
	}
	return true
}

// ecoSeeds are the bodies FuzzDecodeECO starts from: what json.Marshal writes
// for batches of either kind, and the near misses decodeECO must decline or
// read exactly as encoding/json does.
func ecoSeeds() []string {
	marshal := func(req ECORequest) string {
		b, _ := json.Marshal(req)
		return string(b)
	}
	d := func(m, s float64) num.Dist { return num.Dist{Mean: m, Std: s} }
	arcs := []ArcECO{
		{Arc: 17, Rise: d(30.6, 2), Fall: d(1e-7, 0)},
		{Arc: 0, Rise: d(-0.5, 1e21), Fall: d(math.MaxFloat64, math.SmallestNonzeroFloat64)},
		{Arc: math.MaxInt32, Rise: d(math.Copysign(0, -1), 5e-324), Fall: d(123456.789e3, 1)},
	}
	rzs := []ResizeReq{{Cell: "u1", Lib: "INV_X2"}, {Cell: "blk/u7 ü", Lib: "NAND2_X1"}}
	return []string{
		marshal(ECORequest{Arcs: arcs}),
		marshal(ECORequest{Arcs: arcs[:1]}) + "\n",
		marshal(ECORequest{Resizes: rzs}),
		marshal(ECORequest{Resizes: rzs[:1], Arcs: arcs[1:]}),
		marshal(ECORequest{}),
		`{"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}]} `,
		`{"arcs":[{"arc":1,"rise":{"mean":1,"std":2},"fall":{"mean":3,"std":4}}]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2}}]}`,
		`{"arcs":[{"arc":1.0,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}]}`,
		`{"arcs":[{"arc":2147483648,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}]}`,
		`{"arcs":[{"arc":-2147483648,"rise":{"Mean":1E+2,"Std":2e-0},"fall":{"Mean":-0.0,"Std":4}}]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":1e400,"Std":2},"fall":{"Mean":3,"Std":4}}]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":01,"Std":2},"fall":{"Mean":3,"Std":4}}]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":1.,"Std":2},"fall":{"Mean":3,"Std":4}}]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}]} x`,
		`{"arcs":[]}`, `{"resizes":[],"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}]}`,
		`{"resizes":[{"cell":"a\"b","lib":"x"}]}`, `{"resizes":[{"cell":"aü","lib":"x"}]}`,
		"{\"resizes\":[{\"cell\":\"a\xffb\",\"lib\":\"x\"}]}", "{\"resizes\":[{\"cell\":\"a\tb\",\"lib\":\"x\"}]}",
		`{"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}],"resizes":[{"cell":"u1","lib":"x"}]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}},]}`,
		`{"arcs":[{"arc":1,"rise":{"Mean":1,"Std":2},"fall":{"Mean":3,"Std":4}}`,
		``, `{`, `null`, `{}{}`,
	}
}

// FuzzDecodeECO: the one-pass ECO body decoder either declines, leaving the
// request as it found it, or yields exactly what unmarshalFirst — encoding/json
// — yields, with no error, into an empty request and into one zeroed to the
// capacity an earlier batch left it.
func FuzzDecodeECO(f *testing.F) {
	for _, s := range ecoSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, start := range []ECORequest{{}, {Arcs: make([]ArcECO, 0, 2), Resizes: make([]ResizeReq, 0, 1)}} {
			fast := start
			if !decodeECO(data, &fast) {
				zero := !slices.ContainsFunc(fast.Arcs[:cap(fast.Arcs)], func(a ArcECO) bool { return a != ArcECO{} }) &&
					!slices.ContainsFunc(fast.Resizes[:cap(fast.Resizes)], func(r ResizeReq) bool { return r != ResizeReq{} })
				if !zero || !reflect.DeepEqual(fast, start) {
					t.Fatalf("%q: declined, and left the request changed: %+v", data, fast)
				}
				continue
			}
			want := start
			if err := unmarshalFirst(data, &want); err != nil {
				t.Fatalf("%q: decoded %+v, encoding/json answered %v", data, fast, err)
			}
			if !sameECORequest(fast, want) {
				t.Fatalf("%q: decoded %+v, encoding/json decoded %+v", data, fast, want)
			}
		}
	})
}

// TestDecodeECOTakesWhatMarshalWrites: the fast path is not a dead branch —
// it takes what json.Marshal writes for random batches of either kind, the
// shape every client in this repository sends — and it decodes a 512-arc
// body without allocating.
func TestDecodeECOTakesWhatMarshalWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 200; trial++ {
		var req ECORequest
		for n := rng.Intn(3); len(req.Resizes) < n; {
			req.Resizes = append(req.Resizes, ResizeReq{Cell: fmt.Sprintf("u%d/x", rng.Intn(1e6)), Lib: "BUF_X4"})
		}
		for n := rng.Intn(40); len(req.Arcs) < n; {
			f := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)) }
			req.Arcs = append(req.Arcs, ArcECO{Arc: rng.Int31(), Rise: num.Dist{Mean: f(), Std: f()}, Fall: num.Dist{Mean: f(), Std: f()}})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got ECORequest
		if !decodeECO(body, &got) {
			t.Fatalf("declined what json.Marshal wrote: %s", body)
		}
		if !sameECORequest(got, req) {
			t.Fatalf("%s: decoded %+v", body, got)
		}
	}
	var large ECORequest
	for i := range 512 {
		large.Arcs = append(large.Arcs, ArcECO{Arc: int32(i * 97), Rise: num.Dist{Mean: 31.123456789 * float64(i), Std: 2.5}, Fall: num.Dist{Mean: 1e-3, Std: 0.25}})
	}
	body, _ := json.Marshal(large)
	req := &ECORequest{Arcs: make([]ArcECO, 0, 512)}
	if allocs := testing.AllocsPerRun(20, func() {
		if !decodeECO(body, req) {
			t.Fatal("declined")
		}
		putECORequest(req)
	}); allocs != 0 {
		t.Errorf("decoding a 512-arc body into a pooled request allocates %v times", allocs)
	}
}

// TestECOResultBodyIsEncodingJSON: an ECO response written by writeECOResult
// is byte for byte what WriteJSON writes for it, over random results — with
// and without scenario rows, committed or not, every number drawn from the
// ±1e30 clamps, zeros of both signs, values below 1e-6 and at or above 1e21
// and plain ones, each endpoint's base slack either the one the nominal
// lane's text cache holds or another, endpoints past the cache, and pin names
// that need escaping or hold non-ASCII text — and a NaN anywhere empties both
// bodies.
func TestECOResultBodyIsEncodingJSON(t *testing.T) {
	spec, err := bench.BlockSpec("block-1")
	if err != nil {
		t.Fatal(err)
	}
	ref, tab := buildTables(t, spec)
	for _, corners := range []bool{false, true} {
		scns := []core.Scenario{{DelayScale: 1, RCScale: 1, SigmaScale: 1}}
		if corners {
			scns = core.DefaultScenarios()
		}
		e, err := core.NewEngineScenarios(tab, scns, core.Options{TopK: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		srv := New(NewManager(e, ref, Options{}), "block-1")
		m := srv.mgr
		base := m.eng.LaneSlacks(m.nom)
		rng := rand.New(rand.NewSource(40))
		draw := func() float64 {
			switch rng.Intn(9) {
			case 0:
				return 1e30
			case 1:
				return -1e30
			case 2:
				return math.Copysign(0, -float64(rng.Intn(2)))
			case 3:
				return rng.NormFloat64() * 1e-7
			case 4:
				return rng.NormFloat64() * 1e-300
			case 5:
				return math.Copysign(1e21, rng.NormFloat64()) * (1 + 10*rng.Float64())
			case 6:
				return float64(rng.Intn(2000) - 1000)
			default:
				return rng.NormFloat64() * 100
			}
		}
		pins := []string{"", "u1/A", `u"q"/B`, `u\2/C`, "u<3/D", "u>4/D", "u&5/D", "u\x01/E", "u\n/E", "uü/F", "u\u2028/F", "u\u2029/G", "u\xff/H", "u\x7f/I"}
		for trial := 0; trial < 300; trial++ {
			res := &ECOResult{WNS: draw(), TNS: draw(), DeltaWNS: draw(), DeltaTNS: draw(),
				TouchedArcs: rng.Intn(600), OverlayPins: rng.Intn(1e6), Epoch: uint64(rng.Intn(10)), Committed: rng.Intn(4) == 0}
			for n := rng.Intn(60); len(res.Changed) < n; {
				ep := rng.Intn(len(base) + 3)
				es := EndpointSlack{Endpoint: ep, Pin: pins[rng.Intn(len(pins))], Slack: draw(), Base: draw()}
				if ep < len(base) && rng.Intn(2) == 0 {
					es.Base = jsonSlack(base[ep])
				}
				if ep < len(base) && rng.Intn(4) == 0 {
					es.Slack = jsonSlack(base[ep])
				}
				res.Changed = append(res.Changed, es)
			}
			if corners && rng.Intn(2) == 0 {
				for _, name := range []string{"ss", "t<t>", "merged"} {
					res.Scenarios = append(res.Scenarios, ScenarioView{Name: name, WNS: draw(), TNS: draw(), DeltaWNS: draw(), Violations: rng.Intn(3)})
				}
			}
			if trial%50 == 49 && len(res.Changed) > 0 {
				res.Changed[rng.Intn(len(res.Changed))].Slack = math.NaN()
			}
			if trial%70 == 69 {
				res.DeltaTNS = math.NaN()
			}
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			WriteJSON(want, http.StatusOK, res)
			srv.writeECOResult(got, res)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
				got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("corners=%v trial %d: wrote %d %q\nWriteJSON wrote %d %q", corners, trial, got.Code, got.Body, want.Code, want.Body)
			}
			if trial%50 == 49 && strings.Contains(want.Body.String(), "changed") {
				t.Fatalf("trial %d: a NaN slack was encoded", trial)
			}
		}
	}
}
