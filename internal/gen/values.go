package gen

import (
	"math"
)

// UniformValues returns n floats uniform in [0, 1).
func UniformValues(n int, seed uint64) []float64 {
	rng := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// NormalValues returns n standard-normal floats.
func NormalValues(n int, seed uint64) []float64 {
	rng := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Norm()
	}
	return out
}

// LogNormalValues returns n log-normal floats (exp of a normal with
// the given mu and sigma) — a standard latency-distribution model used
// by the quantile examples.
func LogNormalValues(n int, mu, sigma float64, seed uint64) []float64 {
	rng := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(mu + sigma*rng.Norm())
	}
	return out
}

// SortedValues returns 0, 1, …, n-1 as floats: sorted input is the
// adversarial case for GK-style quantile summaries.
func SortedValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// ReversedValues returns n-1, n-2, …, 0 as floats.
func ReversedValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - 1 - i)
	}
	return out
}

// SawtoothValues interleaves ascending runs, another classic quantile
// stress pattern: run r contributes values r, r+period, r+2·period, …
func SawtoothValues(n, period int) []float64 {
	if period <= 0 {
		period = 1
	}
	out := make([]float64, 0, n)
	for r := 0; r < period && len(out) < n; r++ {
		for v := r; len(out) < n; v += period {
			out = append(out, float64(v))
			if v+period >= n {
				break
			}
		}
	}
	// Pad if the nested loop undershot (can happen when period > n).
	for len(out) < n {
		out = append(out, float64(len(out)))
	}
	return out
}

// Point is a point in the plane, used by the geometric summaries.
type Point struct {
	X, Y float64
}

// UniformPoints returns n points uniform in the unit square.
func UniformPoints(n int, seed uint64) []Point {
	rng := NewRNG(seed)
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{rng.Float64(), rng.Float64()}
	}
	return out
}

// GaussianPoints returns n points from an anisotropic Gaussian,
// stretched by (sx, sy) and rotated by theta — exercises directional
// width along non-axis directions.
func GaussianPoints(n int, sx, sy, theta float64, seed uint64) []Point {
	rng := NewRNG(seed)
	cos, sin := math.Cos(theta), math.Sin(theta)
	out := make([]Point, n)
	for i := range out {
		x, y := sx*rng.Norm(), sy*rng.Norm()
		out[i] = Point{x*cos - y*sin, x*sin + y*cos}
	}
	return out
}

// RingPoints returns n points on a noisy circle of the given radius —
// the worst case for convex-extent summaries because every point is
// nearly extreme in some direction.
func RingPoints(n int, radius, noise float64, seed uint64) []Point {
	rng := NewRNG(seed)
	out := make([]Point, n)
	for i := range out {
		a := 2 * math.Pi * rng.Float64()
		r := radius + noise*rng.Norm()
		out[i] = Point{r * math.Cos(a), r * math.Sin(a)}
	}
	return out
}

// ClusteredPoints returns n points in c Gaussian clusters with the
// given spread, centers uniform in the unit square — the skewed case
// for range counting.
func ClusteredPoints(n, c int, spread float64, seed uint64) []Point {
	if c <= 0 {
		c = 1
	}
	rng := NewRNG(seed)
	centers := make([]Point, c)
	for i := range centers {
		centers[i] = Point{rng.Float64(), rng.Float64()}
	}
	out := make([]Point, n)
	for i := range out {
		ct := centers[rng.Intn(c)]
		out[i] = Point{ct.X + spread*rng.Norm(), ct.Y + spread*rng.Norm()}
	}
	return out
}
