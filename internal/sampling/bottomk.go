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
	"sort"

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
	sort.Float64s(out)
	return out
}

// Rank estimates the number of observed values <= v by scaling the
// sample fraction to n.
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

// Quantile returns the sample's phi-quantile.
func (s *BottomK) Quantile(phi float64) float64 {
	vals := s.Values()
	if len(vals) == 0 {
		return math.NaN()
	}
	i := int(phi * float64(len(vals)))
	if i >= len(vals) {
		i = len(vals) - 1
	}
	if i < 0 {
		i = 0
	}
	return vals[i]
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
// the zero value too — allocates nothing. A frame rejected by a header
// check leaves the receiver untouched; one that fails inside the sample
// leaves it empty.
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
	if m > k {
		return fmt.Errorf("sampling: sample size %d exceeds k %d", m, k)
	}
	s.k, s.n = k, n
	if s.rng == nil {
		s.rng = gen.NewRNG(seed)
	} else {
		*s.rng = *gen.NewRNG(seed)
	}
	s.keep = codec.Resize(s.keep, m)[:0]
	for i := 0; i < m; i++ {
		s.keep = append(s.keep, tagged{tag: r.Uint64(), v: r.Float64()})
	}
	if err := r.Finish(); err != nil {
		s.Reset()
		return err
	}
	// heap.Init, unboxed: a frame in heap order (every one the encoder
	// writes) moves nothing.
	for i := len(s.keep)/2 - 1; i >= 0; i-- {
		s.keep.down(i)
	}
	return nil
}

var _ core.QuantileSummary = (*BottomK)(nil)
