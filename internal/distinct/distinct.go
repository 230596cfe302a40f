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
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/codec"
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

// MergedKMV returns the merge of a and b without modifying either.
func MergedKMV(a, b *KMV) (*KMV, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
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
	out := append([]uint64(nil), s.hashes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled, pre-sized buffer.
func (s *KMV) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Grow(1 + 4*10 + len(s.hashes)*10)
	w.Bool(false) // kind: KMV
	w.Int(s.k)
	w.Uint64(s.seed)
	w.Uint64(s.n)
	hs := s.Hashes()
	w.Int(len(hs))
	for _, h := range hs {
		w.Uint64(h)
	}
	return codec.EncodeFrame(codec.KindKMV, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The hashes
// are read in one run into the receiver's own heap storage and the
// membership set is left for the first offer to rebuild, so a reused
// receiver (any k, any seed, any contents; the zero value too)
// allocates nothing. A frame rejected by a header check leaves the
// receiver untouched; one rejected later leaves it empty.
func (s *KMV) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindKMV, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if r.Bool() {
		return fmt.Errorf("distinct: frame holds an HLL summary")
	}
	k := r.Int()
	seed := r.Uint64()
	n := r.Uint64()
	m := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	if k < 2 || m > k {
		return fmt.Errorf("distinct: invalid KMV frame (k=%d, m=%d)", k, m)
	}
	s.k, s.seed, s.n = k, seed, n
	s.hashes = codec.Resize(s.hashes, m)
	r.Uint64s(s.hashes)
	if err := r.Finish(); err != nil {
		s.reset()
		return err
	}
	if !s.adopt() {
		s.reset()
		return fmt.Errorf("distinct: duplicate hashes in KMV frame")
	}
	return nil
}

// adopt turns s.hashes, as read off the wire, into the max-heap of
// exactly those values; false if two are equal. The encoder writes
// them ascending, and an ascending run reversed is a heap; any other
// order is sorted first.
func (s *KMV) adopt() bool {
	hs := s.hashes
	if !slices.IsSorted(hs) {
		slices.Sort(hs)
	}
	for i := 1; i < len(hs); i++ {
		if hs[i-1] == hs[i] {
			return false
		}
	}
	slices.Reverse(hs)
	s.stale = true
	return true
}

// reset empties s, keeping k, seed and storage.
func (s *KMV) reset() {
	s.n, s.hashes, s.stale = 0, s.hashes[:0], true
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
	rest := h<<s.p | 1<<(uint(s.p)-1) // ensure termination
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

// Estimate returns the estimated number of distinct items, with the
// standard small-range (linear counting) correction.
func (s *HLL) Estimate() float64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
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
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	debugAssertHLL(s)
	return nil
}

// MergedHLL returns the merge of a and b without modifying either.
func MergedHLL(a, b *HLL) (*HLL, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// Clone returns a deep copy.
func (s *HLL) Clone() *HLL {
	c := NewHLL(s.p, s.seed)
	c.n = s.n
	copy(c.regs, s.regs)
	return c
}

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled buffer pre-sized for the register file (each
// register value is < 65, so one uvarint byte each).
func (s *HLL) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Grow(1 + 3*10 + len(s.regs))
	w.Bool(true) // kind: HLL
	w.Int(int(s.p))
	w.Uint64(s.seed)
	w.Uint64(s.n)
	for _, r := range s.regs {
		w.Uint64(uint64(r))
	}
	return codec.EncodeFrame(codec.KindHLL, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Registers are
// at most 64, one byte each on the wire, so the register file is one
// range-checked copy into the receiver's own storage (regrown only
// when the precision differs). A frame rejected by a header check
// leaves the receiver untouched; one rejected inside the register run
// leaves it empty.
func (s *HLL) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindHLL, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if !r.Bool() {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("distinct: frame holds a KMV summary")
	}
	p := r.Int()
	seed := r.Uint64()
	n := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if p < 4 || p > 18 {
		return fmt.Errorf("distinct: invalid HLL precision %d", p)
	}
	reused := s.regs != nil
	s.reshape(uint8(p), seed)
	s.n = n
	r.Uint8s(s.regs, 64)
	if err := r.Finish(); err != nil {
		s.n = 0
		clear(s.regs)
		return err
	}
	debugAssertHLLDecoded(s, data, reused)
	return nil
}

// reshape gives s the precision, seed and register count of
// NewHLL(p, seed), in the storage it already has where that fits. The
// registers hold whatever they held: the decoder overwrites them all.
func (s *HLL) reshape(p uint8, seed uint64) {
	s.p, s.seed = p, seed
	s.regs = codec.Resize(s.regs, 1<<p)
}
