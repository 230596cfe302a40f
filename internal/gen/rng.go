// Package gen provides the deterministic synthetic workloads used by
// the tests, examples and experiment harness: Zipf-distributed item
// streams (the standard skewed model for heavy-hitter evaluations),
// uniform and adversarial streams, float value streams for quantile
// summaries, planar point clouds for the geometric summaries, and
// stream partitioners that model distributed data placement.
//
// The target paper has no empirical section, so these generators stand
// in for the proprietary traces this literature usually evaluates on
// (see DESIGN.md §2); every generator is seeded and bit-reproducible.
//
// # Determinism contract
//
// Every randomized entry point in this package takes its seed as an
// explicit uint64 parameter and produces a byte-identical stream for a
// given (seed, parameters) pair — across runs, platforms, and Go
// releases. Nothing in this package reads math/rand's global state,
// time, or any other ambient source, and nothing else in this module
// may: this package is the module's only sanctioned randomness source.
// Tests that pin seeded bytes hold that boundary (the golden wire
// corpus, the quantile summary's committed frames and reuse tests): a
// draw from any other source makes a seeded run unrepeatable.
// Callers that need independent streams derive them by passing
// distinct seeds, never by sharing an RNG across goroutines (RNG is
// not safe for concurrent use).
package gen

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is intentionally independent of math/rand so that
// streams are stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Equal seeds yield
// identical output sequences forever — the seed is the generator's
// complete state, so experiments record it and nothing more. There is
// deliberately no time- or entropy-seeded constructor; callers wanting
// "fresh" randomness must surface a seed parameter to their own caller
// instead (see the package determinism contract).
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State returns the generator's current state: the seed that, passed
// to NewRNG, reproduces the remaining stream exactly. Codecs persist
// an RNG with State so that marshaling is pure — encoding a summary
// twice yields identical bytes and never perturbs its future stream.
func (r *RNG) State() uint64 { return r.state }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("gen: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Norm returns a standard normal variate (Box–Muller).
func (r *RNG) Norm() float64 {
	// Reject u1 == 0 so the log is finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Shuffle permutes s in place (Fisher–Yates).
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
