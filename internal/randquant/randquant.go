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
//
// A summary built with a level budget l (NewHybrid, NewHybridEpsilon)
// is the size-independent-of-n variant (§3.3–3.4): only the top l
// levels of the hierarchy are kept and the infinite tail of low levels
// is replaced by random sampling — values enter with probability
// 2^-ell at weight 2^ell, and ell grows with n so that at most l block
// levels stay active. Total size is O(s·l) = O((1/ε)·log^1.5(1/ε))
// samples however long the stream.
//
// Substitution note (see DESIGN.md §2): the paper implements the
// sampler with bottom-k random tags so that the sample is an exact
// function of the tag assignment; this implementation uses seeded
// Bernoulli subsampling, which preserves unbiasedness, the error
// shape, and mergeability, at the cost of the sample not being
// exchangeable across re-orderings of the same merge tree.
package randquant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// Summary is a randomized mergeable quantile summary, plain (l == 0:
// every level kept, size grows with log n) or bounded (l > 0: at most
// l block levels above the sampling exponent, size independent of n).
// The zero value is not usable; use New, NewEpsilon, NewHybrid or
// NewHybridEpsilon. Summaries are not safe for concurrent use.
type Summary struct {
	s       int         // samples per block
	l       int         // level budget: max active block levels above ell; 0 = unbounded
	ell     int         // sampling exponent: values enter w.p. 2^-ell; stays 0 while l == 0
	n       uint64      // exact number of inserted values (incl. merges)
	partial []float64   // < s accepted values at weight 2^ell, unsorted
	blocks  [][]float64 // blocks[i]: nil or sorted block of s samples at weight 2^i (i >= ell)
	rng     *gen.RNG
}

// runs is the scratch a call borrows from lender and hands back before
// it returns: the summary keeps only its state. keys is promote's sort
// scratch (a block's keys and the kernel's run); free holds block
// storage nothing references any more: every carry retires two blocks
// for the one it makes, and a decode or Reset retires all of a
// summary's, so summaries that merge or decode in a loop stop
// allocating blocks once the lender's lists have filled.
type runs struct {
	keys []uint64
	free [][]float64
}

var lender core.Pool[runs]

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

// NewHybrid returns an empty bounded summary with block size s and at
// most l >= 1 active block levels: its size stays below s·(l+2)
// samples however long the stream.
func NewHybrid(s, l int, seed uint64) *Summary {
	if l < 1 {
		panic("randquant: level budget must be >= 1")
	}
	out := New(s, seed)
	out.l = l
	return out
}

// NewHybridEpsilon sizes a bounded summary for rank error ~eps*n
// w.h.p.: the block size of NewEpsilon and a level budget of
// max(3, ceil(log2(1/eps))+1).
func NewHybridEpsilon(eps float64, seed uint64) *Summary {
	out := NewEpsilon(eps, seed)
	out.l = max(3, int(math.Ceil(math.Log2(1/eps)))+1)
	return out
}

// BlockSize returns the number of samples per block.
func (s *Summary) BlockSize() int { return s.s }

// SampleLevel returns the sampling exponent ell: 0 until a bounded
// summary outgrows its level budget, always 0 for a plain one.
func (s *Summary) SampleLevel() int { return s.ell }

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

// Update inserts one value (kept with probability 2^-ell once a
// bounded summary samples).
func (s *Summary) Update(v float64) {
	if math.IsNaN(v) {
		panic("randquant: NaN has no rank")
	}
	s.n++
	if s.accept(s.ell) && s.push(v) {
		rs := lender.Get()
		s.promotePartial(rs)
		lender.Put(rs)
	}
}

// accept draws whether a sample survives k halvings of its inclusion
// probability; k <= 0 always does, without a draw.
func (s *Summary) accept(k int) bool {
	return k <= 0 || s.rng.Uint64()&(1<<uint(k)-1) == 0
}

// push adds an accepted sample at weight 2^ell and reports whether
// the partial buffer is full: the caller then runs promotePartial, in
// runs it borrows only for that.
func (s *Summary) push(v float64) bool {
	s.partial = append(s.partial, v)
	return len(s.partial) >= s.s
}

// block returns block storage of length n: recycled from the free list
// when a block there fits it (core.Fits), new otherwise.
func (rs *runs) block(n int) []float64 {
	for i := len(rs.free) - 1; i >= 0; i-- {
		if b := rs.free[i]; core.Fits(cap(b), n, n) {
			last := len(rs.free) - 1
			rs.free[i], rs.free[last] = rs.free[last], nil
			rs.free = rs.free[:last]
			return b[:n]
		}
	}
	return make([]float64, n)
}

// retire recycles block storage nothing references any more.
func (rs *runs) retire(b []float64) {
	if b != nil && len(rs.free) < core.MaxFree {
		rs.free = append(rs.free, b)
	}
}

// promote turns the first s samples of the partial buffer into a
// level-ell block — sorted by core.SortFloats, which puts −0 before +0
// where < would leave them in either order — and cascades the carry.
func (s *Summary) promote(rs *runs) {
	b := rs.block(s.s)
	copy(b, s.partial)
	s.partial = append(s.partial[:0], s.partial[s.s:]...)
	rs.keys = codec.Resize(rs.keys, 2*s.s)
	core.SortFloats(b, rs.keys)
	s.carry(rs, b, s.ell)
}

// promotePartial promotes the (full) partial buffer and re-establishes
// the level budget.
func (s *Summary) promotePartial(rs *runs) {
	s.promote(rs)
	s.maybeAdvance(rs)
}

// maybeAdvance raises ell while a bounded summary has more than l
// block levels active.
func (s *Summary) maybeAdvance(rs *runs) {
	for s.l > 0 && s.Levels()-1-s.ell >= s.l {
		s.advance(rs)
	}
}

// advance increments the sampling exponent: the partial buffer and the
// block at the old ell are Bernoulli(1/2)-subsampled up to the new
// weight 2^(ell+1). Survivors are promoted in full chunks directly
// (without re-entering maybeAdvance) so the subsampling probability is
// applied exactly once per sample.
func (s *Summary) advance(rs *runs) {
	var low []float64
	if s.ell < len(s.blocks) {
		low, s.blocks[s.ell] = s.blocks[s.ell], nil
	}
	pending := s.partial
	s.partial = s.partial[:0] // filtered in place: survivors never overtake the read
	for _, vs := range [...][]float64{pending, low} {
		for _, v := range vs {
			if s.rng.Bool() {
				s.partial = append(s.partial, v)
			}
		}
	}
	rs.retire(low)
	s.ell++
	for len(s.partial) >= s.s {
		s.promote(rs)
	}
}

// carry places a block at level i, performing equal-weight merges up
// the hierarchy while the slot is occupied — binary-counter addition.
// It takes ownership of b.
func (s *Summary) carry(rs *runs, b []float64, i int) {
	for {
		for len(s.blocks) <= i {
			s.blocks = append(s.blocks, nil)
		}
		if s.blocks[i] == nil {
			s.blocks[i] = b
			return
		}
		b = s.equalMerge(rs, s.blocks[i], b)
		s.blocks[i] = nil
		i++
	}
}

// equalMerge is the paper's §3.2 primitive: merge two sorted blocks of
// equal sample weight into one block of half the union's length by
// keeping alternate elements of the sorted union, starting at a random
// offset. Both inputs must have length s.s; both are retired, and the
// result is built in recycled storage without materializing the union.
func (s *Summary) equalMerge(rs *runs, a, b []float64) []float64 {
	keep := 0
	if s.rng.Bool() {
		keep = 1
	}
	size := (len(a) + len(b) + 1 - keep) / 2
	out := rs.block(size)[:0]
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
	rs.retire(a)
	rs.retire(b)
	return out
}

// Merge folds other into s. Blocks are combined level-wise with
// binary-counter carries; partial buffers are concatenated (promoting
// a full block if they overflow). The resulting summary is distributed
// exactly as a summary built by any other merge order over the same
// data — full mergeability (PODS'12 Theorem 3.4). Summaries must share
// the block size and the level budget, so plain and bounded never mix;
// a mismatch is refused before s is touched.
//
// Bounded summaries at different sampling exponents are reconciled at
// the coarser one, as §3.4 does: s advances to other's ell, and what
// other holds below s's ell — its partial buffer, its blocks at lower
// levels — enters s's partial buffer sample by sample, each surviving
// with probability 2^(its level − ell) drawn from s's RNG.
//
// other is not modified.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.s != other.s || s.l != other.l {
		return fmt.Errorf("%w: shape (s=%d,l=%d) vs (s=%d,l=%d)", core.ErrMismatchedShape, s.s, s.l, other.s, other.l)
	}
	rs := lender.Get()
	defer lender.Put(rs)
	for s.ell < other.ell {
		s.advance(rs)
	}
	s.n += other.n
	for i := len(other.blocks) - 1; i >= 0; i-- {
		switch {
		case other.blocks[i] == nil:
		case i >= s.ell: // carries never move ell, so every such level is met first
			b := rs.block(s.s)
			copy(b, other.blocks[i])
			s.carry(rs, b, i)
		default:
			s.thin(rs, other.blocks[i], i)
		}
	}
	s.thin(rs, other.partial, other.ell)
	s.maybeAdvance(rs)
	return nil
}

// thin pushes samples of weight 2^level, each kept with probability
// 2^(level − ell) at the ell current when its turn comes (a push may
// advance it): every sample while level == ell.
func (s *Summary) thin(rs *runs, vs []float64, level int) {
	for _, v := range vs {
		if s.accept(s.ell-level) && s.push(v) {
			s.promotePartial(rs)
		}
	}
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
			r += 1 << uint(s.ell)
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
		out = append(out, weighted{v: v, w: 1 << uint(s.ell)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v < out[j].v })
	return out
}

// StoredWeight returns the total weight of stored samples: exactly N
// until a bounded summary samples (ell > 0), an unbiased estimate of
// it from then on.
func (s *Summary) StoredWeight() uint64 {
	var w uint64
	for i, b := range s.blocks {
		w += uint64(len(b)) << uint(i)
	}
	return w + uint64(len(s.partial))<<uint(s.ell)
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
	c.l, c.ell, c.n = s.l, s.ell, s.n
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
// RNG keeps advancing rather than replaying), keeping its partial
// buffer and level table; its blocks go back to the lender.
func (s *Summary) Reset() {
	rs := lender.Get()
	s.reset(rs)
	lender.Put(rs)
}

// reset is Reset, retiring the blocks into rs.
func (s *Summary) reset(rs *runs) {
	s.n, s.ell = 0, 0
	s.partial = s.partial[:0]
	for _, b := range s.blocks {
		rs.retire(b)
	}
	clear(s.blocks)
	s.blocks = s.blocks[:0]
}

// maxLevels bounds the hierarchy: a sample at level i weighs 2^i, and
// weights are uint64.
const maxLevels = 64

// checkInvariants verifies structural invariants; the decoder accepts
// exactly the frames that satisfy them.
func (s *Summary) checkInvariants() error {
	if len(s.partial) >= s.s {
		return fmt.Errorf("partial buffer size %d >= s=%d", len(s.partial), s.s)
	}
	if s.ell >= maxLevels || len(s.blocks) > maxLevels || (s.l == 0 && s.ell != 0) {
		return fmt.Errorf("sampling exponent %d, %d levels, budget %d", s.ell, len(s.blocks), s.l)
	}
	for i, b := range s.blocks {
		if b == nil {
			continue
		}
		if i < s.ell {
			return fmt.Errorf("block at level %d below ell=%d", i, s.ell)
		}
		if len(b) != s.s {
			return fmt.Errorf("block %d has %d samples, want %d", i, len(b), s.s)
		}
		if !sort.Float64sAreSorted(b) {
			return fmt.Errorf("block %d not sorted", i)
		}
	}
	// Between promotions a merge's carries may leave one level over budget.
	if active := s.Levels() - s.ell; s.l > 0 && active > s.l+1 {
		return fmt.Errorf("active levels %d exceed budget %d", active, s.l)
	}
	// Exact weight conservation until sampling starts: every insert is
	// represented once.
	if s.ell == 0 && s.StoredWeight() != s.n {
		return fmt.Errorf("stored weight %d != n %d", s.StoredWeight(), s.n)
	}
	return nil
}

var _ core.QuantileSummary = (*Summary)(nil)
