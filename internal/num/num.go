// Package num provides the small numeric kernels shared across the INSTA
// reproduction: Gaussian (POCV) distribution arithmetic, bilinear table
// interpolation for NLDM lookups, and summary statistics used by the
// correlation studies. The Log-Sum-Exp operator of the backward pass (paper
// Eq. 4-6) lives in internal/core, inside the kernel that uses it.
package num

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Dist is a Gaussian arrival/delay distribution characterized by its mean and
// standard deviation, the POCV model used throughout the paper (§III-B).
type Dist struct {
	Mean float64
	Std  float64
}

// Add composes two independent Gaussian stages: means add and standard
// deviations combine as root-sum-square (paper Eqs. 1-2).
func (d Dist) Add(e Dist) Dist {
	return Dist{Mean: d.Mean + e.Mean, Std: RSS(d.Std, e.Std)}
}

// ParseFinite parses s as a float64 and rejects what parses but is no finite
// number: NaN and ±Inf parse, yet no delay, coordinate, parasitic or
// constraint can hold one. A string that does not parse returns strconv's
// *strconv.NumError.
func ParseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

// Corner returns the pessimistic corner value mean + nSigma*std (paper Eq. 3).
func (d Dist) Corner(nSigma float64) float64 {
	return d.Mean + nSigma*d.Std
}

// EarlyCorner returns the optimistic corner value mean - nSigma*std, used for
// capture-clock arrivals in required-time computation.
func (d Dist) EarlyCorner(nSigma float64) float64 {
	return d.Mean - nSigma*d.Std
}

// RSS returns sqrt(a^2 + b^2). Timing magnitudes (picoseconds) are far from
// float64 overflow, so the direct form is used instead of math.Hypot — this
// sits on the hottest path of both propagation engines.
func RSS(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}

// interp1 linearly interpolates (and extrapolates at the edges) f sampled at
// the strictly increasing axis points xs: Bilinear's lookup on a one-point
// axis.
func interp1(xs, fs []float64, x float64) float64 {
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return fs[0]
	}
	// Find the segment [i, i+1] bracketing x, clamped to the end segments so
	// that out-of-range queries extrapolate linearly (NLDM convention).
	i := sort.SearchFloat64s(xs, x) - 1
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	t := (x - xs[i]) / (xs[i+1] - xs[i])
	return fs[i] + t*(fs[i+1]-fs[i])
}

// Bilinear interpolates a 2D table values[ix][iy] sampled on (xAxis, yAxis) at
// the query point (x, y), extrapolating linearly beyond the grid edges. This
// mirrors NLDM slew-by-load delay table lookup semantics.
func Bilinear(xAxis, yAxis []float64, values [][]float64, x, y float64) float64 {
	nx, ny := len(xAxis), len(yAxis)
	if nx == 0 || ny == 0 {
		return 0
	}
	if nx == 1 {
		return interp1(yAxis, values[0], y)
	}
	if ny == 1 {
		col := make([]float64, nx)
		for i := range col {
			col[i] = values[i][0]
		}
		return interp1(xAxis, col, x)
	}
	i := sort.SearchFloat64s(xAxis, x) - 1
	if i < 0 {
		i = 0
	}
	if i > nx-2 {
		i = nx - 2
	}
	j := sort.SearchFloat64s(yAxis, y) - 1
	if j < 0 {
		j = 0
	}
	if j > ny-2 {
		j = ny - 2
	}
	tx := (x - xAxis[i]) / (xAxis[i+1] - xAxis[i])
	ty := (y - yAxis[j]) / (yAxis[j+1] - yAxis[j])
	f00 := values[i][j]
	f01 := values[i][j+1]
	f10 := values[i+1][j]
	f11 := values[i+1][j+1]
	return f00*(1-tx)*(1-ty) + f10*tx*(1-ty) + f01*(1-tx)*ty + f11*tx*ty
}

// ErrLengthMismatch reports correlation inputs of differing lengths.
var ErrLengthMismatch = errors.New("num: input slices have different lengths")

// Pearson returns the Pearson correlation coefficient of xs and ys.
// It returns 0 for inputs shorter than 2 or with zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	n := len(xs)
	if n < 2 {
		return 0, nil
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MismatchStats describes absolute elementwise differences between a
// reference series and a candidate series (Table I's "(avg, wst)" columns).
type MismatchStats struct {
	Avg   float64
	Worst float64
}

// Mismatch returns the average and worst absolute difference between xs and ys.
func Mismatch(xs, ys []float64) (MismatchStats, error) {
	if len(xs) != len(ys) {
		return MismatchStats{}, ErrLengthMismatch
	}
	var s MismatchStats
	if len(xs) == 0 {
		return s, nil
	}
	for i := range xs {
		d := math.Abs(xs[i] - ys[i])
		s.Avg += d
		if d > s.Worst {
			s.Worst = d
		}
	}
	s.Avg /= float64(len(xs))
	return s, nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
