package num

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDistAdd(t *testing.T) {
	d := Dist{Mean: 10, Std: 3}.Add(Dist{Mean: 5, Std: 4})
	if d.Mean != 15 {
		t.Errorf("mean = %v, want 15", d.Mean)
	}
	if !almostEqual(d.Std, 5, 1e-12) {
		t.Errorf("std = %v, want 5 (RSS of 3,4)", d.Std)
	}
}

func TestDistCorner(t *testing.T) {
	d := Dist{Mean: 100, Std: 2}
	if got := d.Corner(3); got != 106 {
		t.Errorf("Corner(3) = %v, want 106", got)
	}
	if got := d.EarlyCorner(3); got != 94 {
		t.Errorf("EarlyCorner(3) = %v, want 94", got)
	}
}

func TestDistAddCommutative(t *testing.T) {
	f := func(m1, s1, m2, s2 float64) bool {
		a := Dist{m1, math.Abs(s1)}
		b := Dist{m2, math.Abs(s2)}
		x, y := a.Add(b), b.Add(a)
		return x.Mean == y.Mean && x.Std == y.Std
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRSSMonotone(t *testing.T) {
	f := func(a, b, extra float64) bool {
		a, b, extra = math.Abs(a), math.Abs(b), math.Abs(extra)
		if math.IsInf(a+b+extra, 0) || math.IsNaN(a+b+extra) {
			return true
		}
		return RSS(a, b+extra) >= RSS(a, b)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLSEEmpty(t *testing.T) {
	if got := LSE(nil, 0.1); !math.IsInf(got, -1) {
		t.Errorf("LSE(nil) = %v, want -Inf", got)
	}
}

func TestLSEZeroTauIsMax(t *testing.T) {
	xs := []float64{1, 7, 3, -2}
	if got := LSE(xs, 0); got != 7 {
		t.Errorf("LSE(tau=0) = %v, want 7", got)
	}
}

func TestLSEUpperBoundsMax(t *testing.T) {
	// LSE >= max always; LSE <= max + tau*log(n).
	f := func(a, b, c float64) bool {
		xs := []float64{a, b, c}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			// Keep magnitudes bounded so exp stays finite.
			xs[i] = math.Mod(xs[i], 1e6)
		}
		tau := 0.5
		m := math.Max(xs[0], math.Max(xs[1], xs[2]))
		l := LSE(xs, tau)
		return l >= m-1e-9 && l <= m+tau*math.Log(3)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLSEConvergesToMax(t *testing.T) {
	xs := []float64{3.0, 2.9, 1.0}
	prev := math.Inf(1)
	for _, tau := range []float64{1, 0.1, 0.01, 0.001} {
		l := LSE(xs, tau)
		if l > prev+1e-12 {
			t.Errorf("LSE not monotone non-increasing in tau: %v then %v", prev, l)
		}
		prev = l
	}
	if !almostEqual(prev, 3.0, 1e-6) {
		t.Errorf("LSE(tau=0.001) = %v, want ~3.0", prev)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		xs := []float64{a, b, c, d}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			xs[i] = math.Mod(xs[i], 1e4)
		}
		out := make([]float64, 4)
		Softmax(xs, 0.3, out)
		var sum float64
		for _, w := range out {
			if w < 0 || w > 1 {
				return false
			}
			sum += w
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxHardMax(t *testing.T) {
	out := make([]float64, 3)
	Softmax([]float64{1, 5, 2}, 0, out)
	want := []float64{0, 1, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("hard softmax = %v, want %v", out, want)
		}
	}
}

func TestSoftmaxWeightsOrdered(t *testing.T) {
	// Larger input must get at least as much weight.
	xs := []float64{1, 2, 3}
	out := make([]float64, 3)
	Softmax(xs, 0.7, out)
	if !(out[0] < out[1] && out[1] < out[2]) {
		t.Errorf("weights not ordered with inputs: %v", out)
	}
}

func TestSoftmaxMatchesLSEGradient(t *testing.T) {
	// Finite-difference check of Eq. 6 against Eq. 4.
	xs := []float64{1.0, 1.5, 0.5}
	tau := 0.4
	out := make([]float64, 3)
	Softmax(xs, tau, out)
	const h = 1e-6
	for i := range xs {
		up := append([]float64(nil), xs...)
		dn := append([]float64(nil), xs...)
		up[i] += h
		dn[i] -= h
		fd := (LSE(up, tau) - LSE(dn, tau)) / (2 * h)
		if !almostEqual(fd, out[i], 1e-5) {
			t.Errorf("dLSE/dx[%d]: fd=%v softmax=%v", i, fd, out[i])
		}
	}
}

func TestInterp1(t *testing.T) {
	xs := []float64{0, 1, 2}
	fs := []float64{0, 10, 40}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 10}, {0.5, 5}, {1.5, 25},
		{-1, -10}, // left extrapolation
		{3, 70},   // right extrapolation
	}
	for _, c := range cases {
		if got := Interp1(xs, fs, c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Interp1(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestInterp1Degenerate(t *testing.T) {
	if got := Interp1(nil, nil, 5); got != 0 {
		t.Errorf("empty axis: got %v", got)
	}
	if got := Interp1([]float64{2}, []float64{7}, 5); got != 7 {
		t.Errorf("single point: got %v, want 7", got)
	}
}

func TestBilinearExactOnGrid(t *testing.T) {
	xa := []float64{0, 1}
	ya := []float64{0, 2}
	v := [][]float64{{1, 2}, {3, 4}}
	checks := []struct{ x, y, want float64 }{
		{0, 0, 1}, {0, 2, 2}, {1, 0, 3}, {1, 2, 4}, {0.5, 1, 2.5},
	}
	for _, c := range checks {
		if got := Bilinear(xa, ya, v, c.x, c.y); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Bilinear(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestBilinearReproducesPlane(t *testing.T) {
	// A bilinear interpolant reproduces any plane f = a + b*x + c*y exactly,
	// including extrapolation.
	xa := []float64{0, 0.5, 1, 2}
	ya := []float64{0, 1, 3}
	plane := func(x, y float64) float64 { return 2 + 3*x - 0.5*y }
	v := make([][]float64, len(xa))
	for i, x := range xa {
		v[i] = make([]float64, len(ya))
		for j, y := range ya {
			v[i][j] = plane(x, y)
		}
	}
	f := func(x, y float64) bool {
		x = math.Mod(math.Abs(x), 5)
		y = math.Mod(math.Abs(y), 5)
		return almostEqual(Bilinear(xa, ya, v, x, y), plane(x, y), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBilinearDegenerateAxes(t *testing.T) {
	if got := Bilinear(nil, nil, nil, 1, 1); got != 0 {
		t.Errorf("empty: got %v", got)
	}
	got := Bilinear([]float64{1}, []float64{0, 1}, [][]float64{{5, 7}}, 9, 0.5)
	if !almostEqual(got, 6, 1e-12) {
		t.Errorf("1-row table: got %v, want 6", got)
	}
	got = Bilinear([]float64{0, 1}, []float64{2}, [][]float64{{5}, {7}}, 0.5, 9)
	if !almostEqual(got, 6, 1e-12) {
		t.Errorf("1-col table: got %v, want 6", got)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
	for i := range ys {
		ys[i] = -ys[i]
	}
	r, _ = Pearson(xs, ys)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonErrorsAndDegenerate(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if r, _ := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Errorf("short input r = %v, want 0", r)
	}
	if r, _ := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("zero-variance r = %v, want 0", r)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		sanitize := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		xs := []float64{sanitize(a), sanitize(b), sanitize(c)}
		ys := []float64{sanitize(d), sanitize(e), sanitize(g)}
		r, err := Pearson(xs, ys)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMismatch(t *testing.T) {
	s, err := Mismatch([]float64{1, 2, 3}, []float64{1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Avg, 1, 1e-12) || s.Worst != 2 {
		t.Errorf("got %+v, want avg 1 worst 2", s)
	}
	if _, err := Mismatch([]float64{1}, nil); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	s, _ = Mismatch(nil, nil)
	if s.Avg != 0 || s.Worst != 0 {
		t.Errorf("empty mismatch = %+v, want zeros", s)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
