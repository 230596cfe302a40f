// Package distinct implements mergeable count-distinct summaries — the
// classic "other mergeable summaries" family referenced by the
// PODS'12 framework (order statistics of hashed items):
//
//   - KMV (k minimum values): keep the k smallest hash values of the
//     items seen; the k-th smallest value v estimates the distinct
//     count as (k-1)/v. Merging keeps the k smallest of the union,
//     which is exactly the KMV summary of the union — mergeable with
//     zero loss, the same order-statistics argument as the bottom-k
//     sample.
//   - HLL (HyperLogLog): 2^p registers holding the max leading-zero
//     run per hashed bucket; merge is a register-wise max — an
//     idempotent semigroup, so merging is lossless and even tolerates
//     duplicate delivery.
//
// Both summaries hash items with the same seeded 64-bit mixer, so all
// sites constructing summaries with equal parameters merge exactly.
package distinct

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// hash64 is a seeded splitmix64-style mixer used as the item hash. It
// must be identical across sites, so it is a pure function of (seed,
// item).
func hash64(seed uint64, x core.Item) uint64 {
	z := uint64(x) + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// KMV is a k-minimum-values distinct-count summary. The zero value is
// not usable; use NewKMV. Not safe for concurrent use.
type KMV struct {
	k    int
	seed uint64
	// hashes holds the up-to-k smallest distinct hash values seen, as
	// a max-heap so the largest kept value is at the root.
	hashes []uint64
	// member indexes hashes for offer's duplicate test, which runs only
	// for a value below the k-th minimum once k are kept; a key's
	// position is unused, since only membership is asked. A decoded
	// summary leaves it stale until an offer needs it: one that is only
	// ever merged from — every pushed frame, on an aggregator — never
	// pays for building it.
	member core.Index
	stale  bool
	n      uint64 // total updates (with multiplicity), for bookkeeping
}

// NewKMV returns an empty KMV summary keeping the k smallest hashes.
// Relative standard error is about 1/sqrt(k-2).
func NewKMV(k int, seed uint64) *KMV {
	if k < 2 {
		panic("distinct: KMV needs k >= 2")
	}
	s := &KMV{k: k, seed: seed, hashes: make([]uint64, 0, k)}
	s.member.Reset(k + 1) // k kept values and the newcomer that evicts one
	return s
}

// K returns the capacity.
func (s *KMV) K() int { return s.k }

// N returns the number of updates observed (with multiplicity).
func (s *KMV) N() uint64 { return s.n }

// Size returns the number of stored hash values (min(k, distinct)).
func (s *KMV) Size() int { return len(s.hashes) }

func (s *KMV) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.hashes[p] >= s.hashes[i] {
			return
		}
		s.hashes[p], s.hashes[i] = s.hashes[i], s.hashes[p]
		i = p
	}
}

func (s *KMV) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s.hashes) && s.hashes[l] > s.hashes[big] {
			big = l
		}
		if r < len(s.hashes) && s.hashes[r] > s.hashes[big] {
			big = r
		}
		if big == i {
			return
		}
		s.hashes[i], s.hashes[big] = s.hashes[big], s.hashes[i]
		i = big
	}
}

// offer inserts a hash value if it belongs to the k smallest. Once k
// are kept, a value at or above the k-th minimum is turned away before
// the membership lookup — on a long stream, almost every value.
func (s *KMV) offer(h uint64) {
	full := len(s.hashes) >= s.k
	if full && h >= s.hashes[0] {
		return
	}
	if s.stale {
		s.index()
	}
	if s.member.Room() == 0 {
		s.member.Reserve(len(s.hashes) + 1)
	}
	i, p := s.member.Slot(h)
	if p >= 0 {
		return
	}
	s.member.Put(i, h, 0) // one probe for h: in before the evicted root leaves
	if full {
		s.member.Delete(s.hashes[0])
		s.hashes[0] = h
		s.siftDown(0)
	} else {
		s.hashes = append(s.hashes, h)
		s.siftUp(len(s.hashes) - 1)
	}
}

// index rebuilds the membership set from the stored hashes, sized by
// what is stored (and one newcomer): a frame's k is not a reason to
// allocate.
func (s *KMV) index() {
	s.member.Reset(len(s.hashes) + 1)
	for _, h := range s.hashes {
		i, _ := s.member.Slot(h) // distinct, and Reset made room for all
		s.member.Put(i, h, 0)
	}
	s.stale = false
}

// Update observes one occurrence of x.
func (s *KMV) Update(x core.Item) {
	s.n++
	s.offer(hash64(s.seed, x))
	debugAssertKMVSampled(s)
}

// Estimate returns the estimated number of distinct items.
func (s *KMV) Estimate() float64 {
	if len(s.hashes) < s.k {
		// Fewer than k distinct hashes seen: the count is exact.
		return float64(len(s.hashes))
	}
	// (k-1) / normalized k-th minimum.
	kth := float64(s.hashes[0]) / float64(math.MaxUint64)
	if kth == 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / kth
}

// Merge folds other into s: the k smallest hashes of the union are
// kept, which is exactly the KMV summary of the combined stream.
// Summaries must share k and seed; other is not modified.
func (s *KMV) Merge(other *KMV) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	if s.seed != other.seed {
		return fmt.Errorf("%w: KMV hash seeds differ", core.ErrMismatchedShape)
	}
	s.n += other.n
	for _, h := range other.hashes {
		s.offer(h)
	}
	debugAssertKMV(s)
	return nil
}

// Clone returns a deep copy.
func (s *KMV) Clone() *KMV {
	c := NewKMV(s.k, s.seed)
	c.n = s.n
	c.hashes = append(c.hashes, s.hashes...)
	c.stale = true
	return c
}

// Hashes returns the stored hash values in ascending order; used by
// tests to verify the merge-equals-union property.
func (s *KMV) Hashes() []uint64 {
	return s.appendSorted(nil)
}

// appendSorted appends the stored hash values to dst in ascending
// order.
func (s *KMV) appendSorted(dst []uint64) []uint64 {
	n := len(dst)
	dst = append(dst, s.hashes...)
	slices.Sort(dst[n:])
	return dst
}

// HLL is a HyperLogLog distinct-count summary with 2^p registers.
// The zero value is not usable; use NewHLL. Not safe for concurrent
// use.
type HLL struct {
	p    uint8
	seed uint64
	n    uint64
	regs []uint8
}

// NewHLL returns an empty HLL with precision p in [4, 18] (2^p
// registers; relative standard error about 1.04/sqrt(2^p)).
func NewHLL(p uint8, seed uint64) *HLL {
	if p < 4 || p > 18 {
		panic("distinct: HLL precision must be in [4, 18]")
	}
	return &HLL{p: p, seed: seed, regs: make([]uint8, 1<<p)}
}

// Precision returns p.
func (s *HLL) Precision() uint8 { return s.p }

// N returns the number of updates observed (with multiplicity).
func (s *HLL) N() uint64 { return s.n }

// Update observes one occurrence of x.
func (s *HLL) Update(x core.Item) {
	s.n++
	h := hash64(s.seed, x)
	idx := h >> (64 - s.p)
	rest := h<<s.p | 1<<(uint(s.p)-1) // ensure termination: rho <= maxRho(p)
	rho := uint8(1)
	for rest&(1<<63) == 0 {
		rho++
		rest <<= 1
	}
	if rho > s.regs[idx] {
		s.regs[idx] = rho
	}
	debugAssertHLLSampled(s)
}

// invPow2[r] is 2^−r, exactly what 1/2^r divides out to.
var invPow2 = func() (t [64]float64) {
	for r := range t {
		t[r] = 1 / float64(uint64(1)<<r)
	}
	return t
}()

// Estimate returns the estimated number of distinct items, with the
// standard small-range (linear counting) correction. Each register's
// 2^−r is read from a table (every register is at most maxRho < 64),
// and the terms are added in register order, so the sum is the
// per-register division's to the bit.
func (s *HLL) Estimate() float64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += invPow2[r&63]
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting for small cardinalities.
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// Merge folds other into s by register-wise max; summaries must share
// precision and seed. The operation is idempotent and commutative, so
// HLL tolerates re-delivery and arbitrary merge orders. other is not
// modified.
func (s *HLL) Merge(other *HLL) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.p != other.p || s.seed != other.seed {
		return fmt.Errorf("%w: HLL precision/seed", core.ErrMismatchedShape)
	}
	s.n += other.n
	maxRegs(s.regs, other.regs)
	debugAssertHLL(s)
	return nil
}

// maxRegs sets each register of dst to the larger of it and its peer in
// src, eight registers a step and without a branch. It relies on the
// register law (maxRho): every register is below 128, so (a|128) − b
// borrows across no byte and its top bit says a ≥ b. The register file
// is 2^p ≥ 16 bytes, a whole number of words.
func maxRegs(dst, src []uint8) {
	const msb = 0x8080808080808080
	src = src[:len(dst)]
	for i := 0; i+8 <= len(dst); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(src[i:])
		ge := ((a | msb) - b) & msb >> 7 * 0xff // 0xff where a ≥ b
		binary.LittleEndian.PutUint64(dst[i:], a&ge|b&^ge)
	}
}

// maxRho is the largest register an HLL of precision p can hold: the
// 64−p hash bits below the bucket index, all zero, then the guard bit
// Update sets, give a rho of 65−p — at most 61, so every register is
// below 128.
func maxRho(p uint8) uint8 { return 65 - p }

// Clone returns a deep copy.
func (s *HLL) Clone() *HLL {
	c := NewHLL(s.p, s.seed)
	c.n = s.n
	copy(c.regs, s.regs)
	return c
}
