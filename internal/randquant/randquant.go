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
// raw values. Inserting and merging cascade carries up the hierarchy
// exactly like binary addition. The hierarchy is internal/levels, with
// float64 keys and no payload; it is shared with the range-counting
// ε-approximation (internal/epsapprox). This package adds the sampling
// exponent, the rank queries, and its frame header.
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

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/levels"
)

// Summary is a randomized mergeable quantile summary, plain (l == 0:
// every level kept, size grows with log n) or bounded (l > 0: at most
// l block levels above the sampling exponent, size independent of n).
// The zero value is not usable; use New, NewEpsilon, NewHybrid or
// NewHybridEpsilon. Summaries are not safe for concurrent use.
//
// The hierarchy's partial level is the sampling exponent ell: values
// enter with probability 2^-ell at weight 2^ell. It stays 0 while
// l == 0, and lv.N is the exact number of values inserted.
type Summary struct {
	lv stack
	l  int // level budget: max active block levels above ell; 0 = unbounded
}

type (
	stack = levels.Stack[float64, struct{}]
	run   = levels.Run[float64, struct{}]
	runs  = levels.Runs[float64, struct{}]
)

// lender lends each call its sort run and retired block storage.
var lender core.Pool[runs]

// New returns an empty summary with block size s >= 1 and a
// deterministic random seed.
func New(s int, seed uint64) *Summary {
	if s < 1 {
		panic("randquant: block size must be >= 1")
	}
	return &Summary{lv: stack{S: s, RNG: gen.NewRNG(seed)}}
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
func (s *Summary) BlockSize() int { return s.lv.S }

// SampleLevel returns the sampling exponent ell: 0 until a bounded
// summary outgrows its level budget, always 0 for a plain one.
func (s *Summary) SampleLevel() int { return s.lv.Ell }

// N returns the exact number of values summarized, including merges.
func (s *Summary) N() uint64 { return s.lv.N }

// Size returns the total number of stored samples.
func (s *Summary) Size() int { return s.lv.Size() }

// Levels returns the number of levels in the hierarchy (the index of
// the highest occupied block + 1, or 0).
func (s *Summary) Levels() int { return s.lv.Levels() }

// StoredWeight returns the total weight of stored samples: exactly N
// until a bounded summary samples (ell > 0), an unbiased estimate of
// it from then on.
func (s *Summary) StoredWeight() uint64 { return s.lv.StoredWeight() }

// Update inserts one value (kept with probability 2^-ell once a
// bounded summary samples).
func (s *Summary) Update(v float64) {
	if math.IsNaN(v) {
		panic("randquant: NaN has no rank")
	}
	s.lv.N++
	if s.accept(s.lv.Ell) && s.push(v) {
		rs := lender.Get()
		s.promotePartial(rs)
		lender.Put(rs)
	}
}

// accept draws whether a sample survives k halvings of its inclusion
// probability; k <= 0 always does, without a draw.
func (s *Summary) accept(k int) bool {
	return k <= 0 || s.lv.RNG.Uint64()&(1<<uint(k)-1) == 0
}

// push adds an accepted sample at weight 2^ell and reports whether
// the partial buffer is full: the caller then runs promotePartial, in
// runs it borrows only for that.
func (s *Summary) push(v float64) bool {
	s.lv.Partial.Keys = append(s.lv.Partial.Keys, v)
	return len(s.lv.Partial.Keys) >= s.lv.S
}

// sortRun is the quantile's promote sort: core.SortFloats, which puts
// −0 before +0 where < would leave them in either order.
func sortRun(dst, src run, scratch *[]uint64) {
	copy(dst.Keys, src.Keys)
	*scratch = codec.Resize(*scratch, 2*len(dst.Keys))
	core.SortFloats(dst.Keys, *scratch)
}

// promotePartial promotes the (full) partial buffer and re-establishes
// the level budget.
func (s *Summary) promotePartial(rs *runs) {
	s.lv.Promote(rs, sortRun)
	s.maybeAdvance(rs)
}

// maybeAdvance raises ell while a bounded summary has more than l
// block levels active.
func (s *Summary) maybeAdvance(rs *runs) {
	for s.l > 0 && s.lv.Levels()-1-s.lv.Ell >= s.l {
		s.advance(rs)
	}
}

// advance increments the sampling exponent: the partial buffer and the
// block at the old ell are Bernoulli(1/2)-subsampled up to the new
// weight 2^(ell+1). Survivors are promoted in full chunks directly
// (without re-entering maybeAdvance) so the subsampling probability is
// applied exactly once per sample.
func (s *Summary) advance(rs *runs) {
	var low run
	if s.lv.Ell < len(s.lv.Blocks) {
		low, s.lv.Blocks[s.lv.Ell] = s.lv.Blocks[s.lv.Ell], run{}
	}
	pending := s.lv.Partial.Keys
	s.lv.Partial.Keys = pending[:0] // filtered in place: survivors never overtake the read
	for _, vs := range [...][]float64{pending, low.Keys} {
		for _, v := range vs {
			if s.lv.RNG.Bool() {
				s.lv.Partial.Keys = append(s.lv.Partial.Keys, v)
			}
		}
	}
	rs.Retire(low)
	s.lv.Ell++
	for len(s.lv.Partial.Keys) >= s.lv.S {
		s.lv.Promote(rs, sortRun)
	}
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
	if s.lv.S != other.lv.S || s.l != other.l {
		return fmt.Errorf("%w: shape (s=%d,l=%d) vs (s=%d,l=%d)", core.ErrMismatchedShape, s.lv.S, s.l, other.lv.S, other.l)
	}
	rs := lender.Get()
	defer lender.Put(rs)
	for s.lv.Ell < other.lv.Ell {
		s.advance(rs)
	}
	// Carries never move ell, so every level at or above it is met
	// before the first thin.
	s.lv.Absorb(rs, &other.lv, s.lv.Ell)
	for i := min(s.lv.Ell, len(other.lv.Blocks)) - 1; i >= 0; i-- {
		s.thin(rs, other.lv.Blocks[i].Keys, i)
	}
	s.thin(rs, other.lv.Partial.Keys, other.lv.Ell)
	s.maybeAdvance(rs)
	return nil
}

// thin pushes samples of weight 2^level, each kept with probability
// 2^(level − ell) at the ell current when its turn comes (a push may
// advance it): every sample while level == ell.
func (s *Summary) thin(rs *runs, vs []float64, level int) {
	for _, v := range vs {
		if s.accept(s.lv.Ell-level) && s.push(v) {
			s.promotePartial(rs)
		}
	}
}

// Rank estimates the number of inserted values <= v: the weighted
// count of stored samples <= v. The estimator is unbiased and within
// εn w.h.p. for NewEpsilon summaries. Rank(NaN) is 0: no stored value
// is <= NaN.
func (s *Summary) Rank(v float64) uint64 {
	if math.IsNaN(v) {
		return 0
	}
	return s.lv.Rank(v)
}

// Quantile returns a value whose rank is approximately phi*N: the
// smallest stored sample whose cumulative stored weight reaches
// phi*StoredWeight() — the smallest stored v with Rank(v) at least that
// — selected from the sorted levels (levels.Stack.Select), with the
// partial sorted in lent scratch. phi <= 0 answers the smallest sample,
// phi >= 1 or NaN the largest, an empty summary NaN.
func (s *Summary) Quantile(phi float64) float64 {
	if s.Size() == 0 {
		return math.NaN()
	}
	need := uint64(math.MaxUint64) // no rank reaches past the total: the largest sample
	switch {
	case phi <= 0:
		need = 0
	case phi < 1:
		// Ranks are whole, so reaching the target is reaching its
		// ceiling; phi < 1 keeps that below 2^64.
		need = uint64(math.Ceil(phi * float64(s.StoredWeight())))
	}
	rs := lender.Get()
	v := s.lv.Select(rs, need, sortRun)
	lender.Put(rs)
	return v
}

// Clone returns a deep copy sharing nothing with s. The clone's RNG
// state is re-derived so clone and original diverge on future random
// choices (still deterministically, per the original seed).
func (s *Summary) Clone() *Summary {
	return &Summary{lv: s.lv.Clone(), l: s.l}
}

// Reset restores the summary to its freshly-constructed state (the
// RNG keeps advancing rather than replaying), keeping its partial
// buffer and level table; its blocks go back to the lender.
func (s *Summary) Reset() {
	rs := lender.Get()
	s.lv.Reset(rs)
	lender.Put(rs)
}

// checkInvariants verifies the hierarchy's shape (levels.Stack.Check:
// full sorted blocks without NaN, none below ell, and exact weight
// while ell == 0), that a plain summary never samples, and the level
// budget; the decoder accepts exactly the frames that satisfy them.
func (s *Summary) checkInvariants() error {
	if err := s.lv.Check(); err != nil {
		return err
	}
	if s.l == 0 && s.lv.Ell != 0 {
		return fmt.Errorf("plain summary at sampling exponent %d", s.lv.Ell)
	}
	// Between promotions a merge's carries may leave one level over budget.
	if active := s.lv.Levels() - s.lv.Ell; s.l > 0 && active > s.l+1 {
		return fmt.Errorf("active levels %d exceed budget %d", active, s.l)
	}
	return nil
}

var _ core.QuantileSummary = (*Summary)(nil)
