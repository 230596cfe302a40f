package gen

import (
	"math"
	"sort"

	"repro/internal/core"
)

// Zipf samples items from a Zipf (power-law) distribution over the
// universe {0, 1, …, U-1}: rank r (1-based) has probability
// proportional to 1/r^alpha. Unlike math/rand's Zipf it supports any
// alpha >= 0 (alpha = 0 degenerates to uniform), which the experiment
// sweeps need, via an exact inverse-CDF table.
//
// Item identities are a fixed pseudo-random permutation of the ranks so
// that heavy items are not the numerically smallest ones — summaries
// must find them, not guess them.
type Zipf struct {
	cdf   []float64 // cdf[i] = P(rank <= i+1)
	items []core.Item
	rng   *RNG
}

// NewZipf builds a Zipf sampler over a universe of size u with skew
// alpha, seeded deterministically. It panics if u <= 0 or alpha < 0.
func NewZipf(u int, alpha float64, seed uint64) *Zipf {
	if u <= 0 {
		panic("gen: NewZipf with non-positive universe")
	}
	if alpha < 0 {
		panic("gen: NewZipf with negative alpha")
	}
	z := &Zipf{
		cdf:   make([]float64, u),
		items: make([]core.Item, u),
		rng:   NewRNG(seed),
	}
	var total float64
	for i := 0; i < u; i++ {
		total += math.Pow(float64(i+1), -alpha)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	z.cdf[u-1] = 1 // guard against rounding
	// Permute identities with an RNG derived from (but distinct from)
	// the sampling RNG so Sample order does not depend on u.
	perm := NewRNG(seed ^ 0xa5a5a5a5a5a5a5a5)
	for i := range z.items {
		z.items[i] = core.Item(i)
	}
	Shuffle(perm, z.items)
	return z
}

// ItemForRank returns the item identity assigned to 1-based rank r.
func (z *Zipf) ItemForRank(r int) core.Item { return z.items[r-1] }

// Sample draws one item.
func (z *Zipf) Sample() core.Item {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.items) {
		i = len(z.items) - 1
	}
	return z.items[i]
}

// Stream draws n items.
func (z *Zipf) Stream(n int) []core.Item {
	out := make([]core.Item, n)
	for i := range out {
		out[i] = z.Sample()
	}
	return out
}

// Uniform returns a stream of n items drawn uniformly from a universe
// of size u.
func Uniform(n, u int, seed uint64) []core.Item {
	rng := NewRNG(seed)
	out := make([]core.Item, n)
	for i := range out {
		out[i] = core.Item(rng.Intn(u))
	}
	return out
}

// Sequential returns the stream 0, 1, …, n-1: every item distinct, the
// worst case for counter-based summaries (constant eviction pressure).
func Sequential(n int) []core.Item {
	out := make([]core.Item, n)
	for i := range out {
		out[i] = core.Item(i)
	}
	return out
}
