package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzJSONFloat: appendJSONFloat is encoding/json's float64 encoder, byte for
// byte, for every finite value, and refuses exactly what that one refuses —
// so a slack formatted by a session read and one copied from text rendered
// earlier cannot differ from what json.Marshal writes.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -46.901760256629586,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, math.Nextafter(-1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, math.Nextafter(-1e21, 0),
		1e30, -1e30, 1e-7, 1.0000000000287557e-07, 1e-10, 1.5e-100, 1e100,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(v)
		got, ok := appendJSONFloat([]byte("x"), v)
		if ok != (err == nil) {
			t.Fatalf("%v (%#x): ok=%v, json.Marshal err=%v", v, bits, ok, err)
		}
		if !ok {
			want = nil
		}
		if string(got) != "x"+string(want) {
			t.Fatalf("%v (%#x): appended %q to \"x\", json.Marshal wrote %q", v, bits, got, want)
		}
	})
}

// TestAppendSlacksEdges: the stitch on the inputs no served design produces —
// no endpoints, more or fewer endpoints than the lane was rendered for, a NaN
// in the read and a NaN in the base it was rendered from.
func TestAppendSlacksEdges(t *testing.T) {
	lt := renderLaneText([]float64{1.5, -2, math.NaN(), math.Inf(1)}) // held as 0 and 1e30
	for _, tc := range []struct {
		slacks    []float64
		want      string
		formatted int
	}{
		{nil, "", 0},
		{[]float64{1.5, -2, 0, 1e30}, "1.5,-2,0,1e+30", 0},
		{[]float64{1.5, -2}, "1.5,-2", 0},
		{[]float64{1.5, -2, 0, 1e30, 7, 1e-7}, "1.5,-2,0,1e+30,7,1e-7", 2},
		{[]float64{3, -2, math.Copysign(0, -1), 1e30}, "3,-2,-0,1e+30", 2},
		{[]float64{-2, 1.5}, "-2,1.5", 2},
	} {
		got, formatted, ok := lt.appendSlacks([]byte("["), tc.slacks)
		if !ok || string(got) != "["+tc.want || formatted != tc.formatted {
			t.Errorf("appendSlacks(%v) = %q, %d formatted, ok=%v; want %q, %d", tc.slacks, got, formatted, ok, "["+tc.want, tc.formatted)
		}
	}
	if _, _, ok := lt.appendSlacks(nil, []float64{1.5, -2, math.NaN(), 1e30}); ok {
		t.Error("a NaN slack was answered from the text held for a NaN base slack")
	}
	if _, _, ok := renderLaneText(nil).appendSlacks(nil, []float64{math.Inf(1)}); ok {
		t.Error("an unclamped +Inf was formatted")
	}
}

// TestUnmarshalFirstIsDecoder: a request body decoded from a buffer answers
// as it did streamed through a json.Decoder — the same value, or an error
// with the same text (the wire goldens hold two of them) — whatever it is
// followed by or cut short at.
func TestUnmarshalFirstIsDecoder(t *testing.T) {
	for _, body := range []string{
		``, " \n\t", `{}`, `{"arcs":[{"arc":3,"rise":{"mean":1,"std":2}}]}`, "{\"arcs\":[]}\n",
		`{"arcs":[{"arc":`, `{"arcs":[{"arc":1}`, `{`, `{"resizes":[{"cell":"a`,
		`{"arcs":[{"arc":1}]} trailing`, `{"arcs":[{"arc":1}]}{"arcs":[{"arc":2}]}`, `{"arcs":[{"arc":2}]}]`,
		`{"arcs":[{"arc":"x"}]}`, `{"arcs":{}}`, `12`, `12 x`, `nul`, `null`, `[1,2]`, `{"arcs":[,]}`, `}`, `{"a" 1}`,
		`{"arcs":[{"arc":1}],"arcs":[{"arc":2},{"arc":3}]}`,
	} {
		var want, got ECORequest
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		gotErr := unmarshalFirst([]byte(body), &got)
		if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Errorf("%q: error %v, a json.Decoder answered %v", body, gotErr, wantErr)
		}
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		if !bytes.Equal(w, g) {
			t.Errorf("%q: decoded %s, a json.Decoder decoded %s", body, g, w)
		}
	}
}
