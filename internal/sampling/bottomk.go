// Package sampling implements random-sample summaries for rank and
// quantile estimation: the mergeable bottom-k sample (every occurrence
// draws an i.i.d. priority tag; the summary keeps the k smallest tags,
// and merging keeps the k smallest of the union — §3.3 of the PODS'12
// paper uses exactly this primitive to make sampling mergeable).
//
// A bottom-k sample of size k answers rank queries with standard error
// about n/√k, the usual sampling trade-off the paper's quantile
// summaries beat at equal space.
package sampling

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// tagged is one sampled value with its priority tag.
type tagged struct {
	tag uint64
	v   float64
}

// tagHeap is a max-heap on tags, so the root is the largest kept tag
// (the first to be displaced). up and down make container/heap's
// moves without boxing a tag.
type tagHeap []tagged

func (h tagHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].tag <= h[i].tag {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h tagHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h[j2].tag > h[j].tag {
			j = j2
		}
		if h[j].tag <= h[i].tag {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// put adds t to a heap of fewer than k tags, or sets it in place of
// the root of a full one.
func (h *tagHeap) put(t tagged, k int) {
	if len(*h) < k {
		*h = append(*h, t)
		h.up(len(*h) - 1)
		return
	}
	(*h)[0] = t
	h.down(0)
}

// BottomK is a mergeable uniform sample of up to k values. The zero
// value is not usable; use NewBottomK. Not safe for concurrent use.
type BottomK struct {
	k    int
	n    uint64
	keep tagHeap
	rng  *gen.RNG
}

// NewBottomK returns an empty sample of capacity k with a
// deterministic tag-generation seed.
func NewBottomK(k int, seed uint64) *BottomK {
	if k < 1 {
		panic("sampling: k must be >= 1")
	}
	return &BottomK{k: k, rng: gen.NewRNG(seed)}
}

// K returns the sample capacity.
func (s *BottomK) K() int { return s.k }

// N returns the number of values observed, including merged-in ones.
func (s *BottomK) N() uint64 { return s.n }

// Size returns the current sample size (min(k, n)).
func (s *BottomK) Size() int { return len(s.keep) }

// Update observes one value: it draws a fresh uniform tag and is kept
// iff its tag is among the k smallest seen.
func (s *BottomK) Update(v float64) {
	if math.IsNaN(v) {
		panic("sampling: NaN has no rank")
	}
	s.n++
	s.offer(tagged{tag: s.rng.Uint64(), v: v})
}

// offer keeps t while the sample has room, and afterwards in place of
// the largest kept tag when t's is smaller. It is small enough to
// inline, so a tag that is not kept — most of them, once the sample is
// full — costs a comparison and no call.
func (s *BottomK) offer(t tagged) {
	if len(s.keep) < s.k || t.tag < s.keep[0].tag {
		s.keep.put(t, s.k)
	}
}

// Merge folds other into s: the union's k smallest tags are kept,
// which is distributed exactly as a bottom-k sample of the combined
// stream — the mergeability property. Capacities must match; other is
// not modified.
func (s *BottomK) Merge(other *BottomK) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	s.n += other.n
	for _, t := range other.keep {
		s.offer(t)
	}
	return nil
}

// Values returns the sampled values, sorted.
func (s *BottomK) Values() []float64 {
	out := make([]float64, len(s.keep))
	for i, t := range s.keep {
		out[i] = t.v
	}
	slices.Sort(out)
	return out
}

// Rank estimates the number of observed values <= v by scaling the
// sample fraction to n. Rank(NaN) is 0: no sampled value is <= NaN.
func (s *BottomK) Rank(v float64) uint64 {
	if len(s.keep) == 0 {
		return 0
	}
	var c int
	for _, t := range s.keep {
		if t.v <= v {
			c++
		}
	}
	return uint64(float64(c) / float64(len(s.keep)) * float64(s.n))
}

// lender lends Quantile its copy of the sample, as order-preserving
// words (core.FloatKey).
var lender core.Pool[[]uint64]

// Quantile returns the sample's phi-quantile: the value at index
// ⌊phi·size⌋ of the sorted sample, phi clamped to [0, 1] first (1 and
// above answer the largest value, and so does NaN; 0 and below the
// smallest). The one order statistic is selected in a lent copy of the
// sample; nothing is sorted or allocated.
func (s *BottomK) Quantile(phi float64) float64 {
	if len(s.keep) == 0 {
		return math.NaN()
	}
	i := len(s.keep) - 1
	if phi < 1 {
		i = min(int(max(phi, 0)*float64(len(s.keep))), i)
	}
	keys := lender.Get()
	*keys = (*keys)[:0]
	for _, t := range s.keep {
		*keys = append(*keys, core.FloatKey(t.v))
	}
	v := core.KeyFloat(core.SelectKth(*keys, i))
	lender.Put(keys)
	return v
}

// Clone returns a deep copy (with a re-derived RNG).
func (s *BottomK) Clone() *BottomK {
	c := NewBottomK(s.k, s.rng.Uint64())
	c.n = s.n
	c.keep = append(tagHeap(nil), s.keep...)
	return c
}

// Reset restores the sample to its freshly-constructed state.
func (s *BottomK) Reset() {
	s.n = 0
	s.keep = s.keep[:0]
}

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled, pre-sized buffer.
func (s *BottomK) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Grow(4*10 + len(s.keep)*(10+8))
	w.Int(s.k)
	w.Uint64(s.n)
	w.Uint64(s.rng.State())
	w.Int(len(s.keep))
	for _, t := range s.keep {
		w.Uint64(t.tag)
		w.Float64(t.v)
	}
	return codec.EncodeFrame(codec.KindBottomK, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The sample is
// read into the receiver's own heap storage (regrown only when the
// frame holds more than it has room for) and its tag generator is
// reseeded from the frame, so a reused receiver — any k, any contents;
// the zero value too — allocates nothing. The sample must come in the
// heap order MarshalBinary writes: no tag above its parent's. A frame
// rejected by a header check leaves the receiver untouched; one whose
// sample size is not min(k, n) — what every stream of n values keeps —
// or that fails inside the sample leaves it empty.
func (s *BottomK) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindBottomK, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	k := r.Int()
	n := r.Uint64()
	seed := r.Uint64()
	m := r.ArrayLen(9)
	if r.Err() != nil {
		return r.Err()
	}
	if k < 1 {
		return fmt.Errorf("sampling: invalid k %d in frame", k)
	}
	s.k, s.n = k, n
	if s.rng == nil {
		s.rng = gen.NewRNG(seed)
	} else {
		*s.rng = *gen.NewRNG(seed)
	}
	if uint64(m) != min(uint64(k), n) {
		s.Reset()
		return fmt.Errorf("sampling: sample size %d is not min(k=%d, n=%d)", m, k, n)
	}
	s.keep = codec.Resize(s.keep, m)[:0]
	for i := 0; i < m; i++ {
		t := tagged{tag: r.Uint64(), v: r.Float64()}
		if math.IsNaN(t.v) { // Update refuses one: it has no rank
			s.Reset()
			return fmt.Errorf("sampling: NaN sample in frame")
		}
		if i > 0 && t.tag > s.keep[(i-1)/2].tag {
			s.Reset()
			return fmt.Errorf("sampling: sample %d out of heap order", i)
		}
		s.keep = append(s.keep, t)
	}
	if err := r.Finish(); err != nil {
		s.Reset()
		return err
	}
	return nil
}

var _ core.QuantileSummary = (*BottomK)(nil)
