// Package countsketch implements the Count-Sketch of Charikar, Chen
// and Farach-Colton: a d×w matrix of signed counters; point queries
// take the median across rows of the signed cell values. Unlike
// Count-Min it is unbiased and its error scales with the stream's L2
// norm (2·‖f‖₂/√w per row), which is much smaller than εn on skewed
// streams — the classic accuracy/space trade against Count-Min.
//
// Count-Sketch is a linear sketch, hence trivially mergeable by
// cell-wise addition (the PODS'12 baseline case).
package countsketch

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
)

// Sketch is a Count-Sketch. The zero value is not usable; use New.
// Sketches are not safe for concurrent use.
type Sketch struct {
	width int
	depth int
	seed  uint64
	n     uint64
	rows  [][]int64
	a, b  []uint64 // bucket hash parameters
	sa    []uint64 // sign hash parameters
}

// New returns an empty sketch. Two sketches are mergeable iff they
// share width, depth and seed.
func New(width, depth int, seed uint64) *Sketch {
	if width < 1 || depth < 1 {
		panic("countsketch: width and depth must be >= 1")
	}
	s := &Sketch{}
	s.reshape(width, depth, seed)
	return s
}

// reshape gives s the geometry and hash rows of New(width, depth,
// seed), in the storage it already has where that fits; a sketch of
// that shape already is left alone. What the cells hold afterwards is
// unspecified unless the storage is new: the decoder overwrites every
// one.
func (s *Sketch) reshape(width, depth int, seed uint64) {
	if s.width == width && s.depth == depth && s.seed == seed {
		return
	}
	s.width, s.depth, s.seed = width, depth, seed
	s.rows = codec.Resize(s.rows, depth)
	s.a = codec.Resize(s.a, depth)
	s.b = codec.Resize(s.b, depth)
	s.sa = codec.Resize(s.sa, depth)
	state := seed ^ 0xc3a5c85c97cb3127
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < depth; i++ {
		s.rows[i] = codec.Resize(s.rows[i], width)
		s.a[i] = next() | 1
		s.b[i] = next()
		s.sa[i] = next() | 1
	}
}

// Width returns the row width.
func (s *Sketch) Width() int { return s.width }

// Depth returns the number of rows.
func (s *Sketch) Depth() int { return s.depth }

// N returns the total weight summarized, including merged-in weight.
func (s *Sketch) N() uint64 { return s.n }

func (s *Sketch) cell(i int, x core.Item) int {
	h := s.a[i]*uint64(x) + s.b[i]
	return int((h >> 17) % uint64(s.width))
}

func (s *Sketch) sign(i int, x core.Item) int64 {
	h := s.sa[i] * uint64(x)
	if h>>63 == 1 {
		return -1
	}
	return 1
}

// Update adds w >= 1 occurrences of x.
func (s *Sketch) Update(x core.Item, w uint64) {
	if w == 0 {
		panic("countsketch: zero-weight update")
	}
	s.n += w
	for i := 0; i < s.depth; i++ {
		s.rows[i][s.cell(i, x)] += s.sign(i, x) * int64(w)
	}
}

// fastmod returns what the batch path reduces a bucket hash with: for
// h < 2^47 — every (a·x+b)>>17 — and width <= 2^17, the high word of
// (recip·h mod 2^64)·width is exactly h % width (Lemire, Kaser, Kurz,
// "Faster remainder by direct computation": 64 fraction bits cover a
// 47-bit numerator and a 17-bit divisor; a power-of-two width makes
// recip a power of two and the product a mask). Wider rows keep the
// division.
func (s *Sketch) fastmod() (recip uint64, wide bool) {
	return ^uint64(0)/uint64(s.width) + 1, s.width > 1<<17
}

// UpdateBatch adds one occurrence of every item in xs. The result is
// identical to calling Update(x, 1) for each x, but the batch path
// walks the matrix row-major with the row's bucket and sign hash
// parameters held in registers, amortizing per-item loads and bounds
// checks, reduces the bucket hash without dividing and adds the sign
// without branching on it: cell and sign are bit for bit what cell()
// and sign() compute.
func (s *Sketch) UpdateBatch(xs []core.Item) {
	if len(xs) == 0 {
		return
	}
	width := uint64(s.width)
	recip, wide := s.fastmod()
	for i := 0; i < s.depth; i++ {
		ai, bi, sai := s.a[i], s.b[i], s.sa[i]
		row := s.rows[i]
		for _, x := range xs {
			h := (ai*uint64(x) + bi) >> 17
			c, _ := bits.Mul64(recip*h, width)
			if wide {
				c = h % width
			}
			row[c] += 1 - 2*int64((sai*uint64(x))>>63)
		}
	}
	s.n += uint64(len(xs))
}

// lender lends estimate its row estimates, as order-preserving words:
// a signed estimate's bits with the sign bit flipped.
var lender core.Pool[[]uint64]

// estimate returns the median-of-rows signed estimate, clamped at 0: the
// middle row estimate, or the mean of the two middle ones (rounded
// toward zero) for an even depth. The median is selected in a lent copy
// of the row estimates; nothing is sorted or allocated.
func (s *Sketch) estimate(x core.Item) uint64 {
	const flip = 1 << 63
	keys := lender.Get()
	ks := (*keys)[:0]
	for i := 0; i < s.depth; i++ {
		ks = append(ks, uint64(s.sign(i, x)*s.rows[i][s.cell(i, x)])^flip)
	}
	*keys = ks
	h := s.depth / 2
	med := int64(core.SelectKth(ks, h) ^ flip)
	if s.depth%2 == 0 {
		// The selection leaves the h estimates below the median's slot
		// at or under it: the lower middle one is their largest.
		med = (int64(slices.Max(ks[:h])^flip) + med) / 2
	}
	lender.Put(keys)
	if med < 0 {
		return 0
	}
	return uint64(med)
}

// Estimate answers a point query. Count-Sketch is unbiased but has no
// deterministic one-sided bound, so the guaranteed interval is the
// trivial [0, N].
func (s *Sketch) Estimate(x core.Item) core.Estimate {
	return core.Estimate{Value: s.estimate(x), Lower: 0, Upper: s.n}
}

// Merge adds other cell-wise into s. Sketches must share geometry and
// seed.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.width != other.width || s.depth != other.depth || s.seed != other.seed {
		return fmt.Errorf("%w: countsketch geometry/seed", core.ErrMismatchedShape)
	}
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] += other.rows[i][j]
		}
	}
	s.n += other.n
	return nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(s.width, s.depth, s.seed)
	c.n = s.n
	for i := range s.rows {
		copy(c.rows[i], s.rows[i])
	}
	return c
}

// Reset zeroes the sketch.
func (s *Sketch) Reset() {
	s.n = 0
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] = 0
		}
	}
}

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled buffer pre-sized for the counter matrix.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Signed cells ride through uvarint as raw two's-complement bits,
	// so negative values take the full 10 bytes; size for that.
	w.Grow(4*10 + s.width*s.depth*10)
	w.Int(s.width)
	w.Int(s.depth)
	w.Uint64(s.seed)
	w.Uint64(s.n)
	for _, row := range s.rows {
		codec.Uvarints(w, row) // raw two's-complement bits: a negative cell takes ten bytes
	}
	return codec.EncodeFrame(codec.KindCountSketch, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The frame is
// decoded into the receiver's own storage: a sketch of the frame's
// geometry and seed keeps its rows and hash parameters and has its
// cells overwritten by one run read per row, any other receiver (the
// zero value included) is first reshaped exactly as New would build
// it. A frame rejected by a header or geometry check leaves the
// receiver untouched; one that fails inside the counter runs leaves it
// empty.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindCountSketch, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	width := r.Int()
	depth := r.Int()
	seed := r.Uint64()
	n := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if width < 1 || depth < 1 || width*depth > 1<<28 {
		return fmt.Errorf("countsketch: implausible geometry %dx%d", depth, width)
	}
	if width*depth > r.Remaining() {
		return fmt.Errorf("countsketch: geometry %dx%d exceeds payload", depth, width)
	}
	s.reshape(width, depth, seed)
	s.n = n
	for i := 0; i < depth; i++ {
		r.Int64s(s.rows[i][:width])
	}
	if err := r.Finish(); err != nil {
		s.Reset()
		return err
	}
	return nil
}

var _ core.FrequencySummary = (*Sketch)(nil)
