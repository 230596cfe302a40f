// Package randquant implements the randomized fully-mergeable quantile
// summary of Agarwal et al. ("Mergeable Summaries", PODS 2012, §3).
//
// The primitive is the equal-weight merge (§3.2): two sorted blocks of
// s samples, each sample representing weight w, are merged by sorting
// their union (2s values) and keeping alternate values starting at a
// random offset — s samples of weight 2w. Each such merge is an
// unbiased rank estimator and its error telescopes across any merge
// tree, which is what makes the summary *fully* mergeable, unlike GK.
//
// Unequal weights are handled by the logarithmic technique (§3.3): the
// summary is a binary-counter-like hierarchy where level i holds at
// most one block of s samples of weight 2^i, plus a partial buffer of
// raw (weight-1) values. Inserting and merging cascade carries up the
// hierarchy exactly like binary addition.
//
// With s = Θ((1/ε)·√log(1/ε)) the rank error is at most εn with high
// probability under arbitrary merge topologies (the paper's Theorem
// 3.4); see NewEpsilon.
package randquant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// Summary is a randomized mergeable quantile summary. The zero value
// is not usable; use New or NewEpsilon. Summaries are not safe for
// concurrent use.
type Summary struct {
	s       int         // samples per block
	n       uint64      // exact number of inserted values (incl. merges)
	partial []float64   // < s raw values at weight 1, unsorted
	blocks  [][]float64 // blocks[i]: nil or sorted block of s samples at weight 2^i
	rng     *gen.RNG
	// free holds block storage nothing references any more: every
	// carry retires two blocks for the one it makes, and a decode
	// retires all of them, so a summary that merges or decodes in a
	// loop stops allocating blocks once this has filled.
	free [][]float64
}

// New returns an empty summary with block size s >= 1 and a
// deterministic random seed.
func New(s int, seed uint64) *Summary {
	if s < 1 {
		panic("randquant: block size must be >= 1")
	}
	return &Summary{s: s, rng: gen.NewRNG(seed)}
}

// NewEpsilon returns a summary sized for rank error at most eps*n with
// high probability: s = ceil((2/eps)·sqrt(log2(1/eps)+1)), the paper's
// Θ((1/ε)√log(1/ε)) with an empirically validated constant.
func NewEpsilon(eps float64, seed uint64) *Summary {
	if eps <= 0 || eps >= 1 {
		panic("randquant: eps must be in (0, 1)")
	}
	s := int(math.Ceil(2 / eps * math.Sqrt(math.Log2(1/eps)+1)))
	return New(s, seed)
}

// BlockSize returns the number of samples per block.
func (s *Summary) BlockSize() int { return s.s }

// N returns the exact number of values summarized, including merges.
func (s *Summary) N() uint64 { return s.n }

// Size returns the total number of stored samples.
func (s *Summary) Size() int {
	total := len(s.partial)
	for _, b := range s.blocks {
		total += len(b)
	}
	return total
}

// Levels returns the number of levels in the hierarchy (the index of
// the highest occupied block + 1, or 0).
func (s *Summary) Levels() int {
	top := 0
	for i, b := range s.blocks {
		if b != nil {
			top = i + 1
		}
	}
	return top
}

// Update inserts one value.
func (s *Summary) Update(v float64) {
	if math.IsNaN(v) {
		panic("randquant: NaN has no rank")
	}
	s.n++
	s.partial = append(s.partial, v)
	if len(s.partial) >= s.s {
		s.promotePartial()
	}
}

// spare pops recycled block storage, or nil when there is none. Callers
// size it with codec.Resize, which replaces storage that is too small
// (recycled under a smaller block size).
func (s *Summary) spare() []float64 {
	n := len(s.free)
	if n == 0 {
		return nil
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	return b
}

// retire recycles block storage nothing references any more.
func (s *Summary) retire(b []float64) {
	if b != nil {
		s.free = append(s.free, b)
	}
}

// promotePartial turns the (full) partial buffer into a level-0 block
// and cascades the carry.
func (s *Summary) promotePartial() {
	b := codec.Resize(s.spare(), len(s.partial))
	copy(b, s.partial)
	sort.Float64s(b)
	s.partial = s.partial[:0]
	s.carry(b, 0)
}

// carry places a block at level i, performing equal-weight merges up
// the hierarchy while the slot is occupied — binary-counter addition.
// It takes ownership of b.
func (s *Summary) carry(b []float64, i int) {
	for {
		for len(s.blocks) <= i {
			s.blocks = append(s.blocks, nil)
		}
		if s.blocks[i] == nil {
			s.blocks[i] = b
			return
		}
		b = s.equalMerge(s.blocks[i], b)
		s.blocks[i] = nil
		i++
	}
}

// equalMerge is the paper's §3.2 primitive: merge two sorted blocks of
// equal sample weight into one block of half the union's length by
// keeping alternate elements of the sorted union, starting at a random
// offset. Both inputs must have length s.s; both are retired, and the
// result is built in recycled storage without materializing the union.
func (s *Summary) equalMerge(a, b []float64) []float64 {
	keep := 0
	if s.rng.Bool() {
		keep = 1
	}
	out := codec.Resize(s.spare(), (len(a)+len(b)+1-keep)/2)[:0]
	ai, bi := 0, 0
	for i := 0; ai < len(a) || bi < len(b); i++ {
		var v float64
		if bi >= len(b) || (ai < len(a) && a[ai] <= b[bi]) {
			v = a[ai]
			ai++
		} else {
			v = b[bi]
			bi++
		}
		if i&1 == keep {
			out = append(out, v)
		}
	}
	s.retire(a)
	s.retire(b)
	return out
}

// Merge folds other into s. Blocks are combined level-wise with
// binary-counter carries; partial buffers are concatenated (promoting
// a full block if they overflow). The resulting summary is distributed
// exactly as a summary built by any other merge order over the same
// data — full mergeability (PODS'12 Theorem 3.4). Summaries must share
// the block size.
//
// other is not modified.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.s != other.s {
		return fmt.Errorf("%w: block size %d vs %d", core.ErrMismatchedShape, s.s, other.s)
	}
	s.n += other.n
	for i := len(other.blocks) - 1; i >= 0; i-- {
		if other.blocks[i] != nil {
			b := codec.Resize(s.spare(), len(other.blocks[i]))
			copy(b, other.blocks[i])
			s.carry(b, i)
		}
	}
	for _, v := range other.partial {
		s.partial = append(s.partial, v)
		if len(s.partial) >= s.s {
			s.promotePartial()
		}
	}
	return nil
}

// Merged returns the merge of a and b without modifying either.
func Merged(a, b *Summary) (*Summary, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// Rank estimates the number of inserted values <= v: the weighted
// count of stored samples <= v. The estimator is unbiased and within
// εn w.h.p. for NewEpsilon summaries.
func (s *Summary) Rank(v float64) uint64 {
	var r uint64
	for i, b := range s.blocks {
		if b == nil {
			continue
		}
		c := sort.Search(len(b), func(j int) bool { return b[j] > v })
		r += uint64(c) << uint(i)
	}
	for _, x := range s.partial {
		if x <= v {
			r++
		}
	}
	return r
}

// weighted is one stored sample with its level weight.
type weighted struct {
	v float64
	w uint64
}

// samples returns all stored samples sorted by value.
func (s *Summary) samples() []weighted {
	out := make([]weighted, 0, s.Size())
	for i, b := range s.blocks {
		for _, v := range b {
			out = append(out, weighted{v: v, w: 1 << uint(i)})
		}
	}
	for _, v := range s.partial {
		out = append(out, weighted{v: v, w: 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v < out[j].v })
	return out
}

// StoredWeight returns the total weight of stored samples. It can
// deviate from N by at most BlockSize-1 (the partial buffer rounding);
// for the plain summary the block hierarchy preserves weight exactly.
func (s *Summary) StoredWeight() uint64 {
	var w uint64
	for i, b := range s.blocks {
		w += uint64(len(b)) << uint(i)
	}
	return w + uint64(len(s.partial))
}

// Quantile returns a value whose rank is approximately phi*N: the
// smallest stored sample whose cumulative stored weight reaches
// phi*StoredWeight().
func (s *Summary) Quantile(phi float64) float64 {
	all := s.samples()
	if len(all) == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return all[0].v
	}
	if phi >= 1 {
		return all[len(all)-1].v
	}
	target := phi * float64(s.StoredWeight())
	var cum float64
	for _, ws := range all {
		cum += float64(ws.w)
		if cum >= target {
			return ws.v
		}
	}
	return all[len(all)-1].v
}

// Clone returns a deep copy sharing nothing with s. The clone's RNG
// state is re-derived so clone and original diverge on future random
// choices (still deterministically, per the original seed).
func (s *Summary) Clone() *Summary {
	c := New(s.s, s.rng.Uint64())
	c.n = s.n
	c.partial = append([]float64(nil), s.partial...)
	c.blocks = make([][]float64, len(s.blocks))
	for i, b := range s.blocks {
		if b != nil {
			c.blocks[i] = append([]float64(nil), b...)
		}
	}
	return c
}

// Reset restores the summary to its freshly-constructed state (the
// RNG keeps advancing rather than replaying), keeping its storage.
func (s *Summary) Reset() {
	s.n = 0
	s.partial = s.partial[:0]
	for _, b := range s.blocks {
		s.retire(b)
	}
	s.blocks = s.blocks[:0]
}

// checkInvariants verifies structural invariants; used by tests.
func (s *Summary) checkInvariants() error {
	if len(s.partial) >= s.s {
		return fmt.Errorf("partial buffer size %d >= s=%d", len(s.partial), s.s)
	}
	for i, b := range s.blocks {
		if b == nil {
			continue
		}
		if len(b) != s.s {
			return fmt.Errorf("block %d has %d samples, want %d", i, len(b), s.s)
		}
		if !sort.Float64sAreSorted(b) {
			return fmt.Errorf("block %d not sorted", i)
		}
	}
	// Exact weight conservation: every insert is represented once.
	if s.StoredWeight() != s.n {
		return fmt.Errorf("stored weight %d != n %d", s.StoredWeight(), s.n)
	}
	return nil
}

var _ core.QuantileSummary = (*Summary)(nil)
