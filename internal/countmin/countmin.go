// Package countmin implements the Count-Min sketch of Cormode and
// Muthukrishnan: a d×w matrix of counters updated through d pairwise-
// independent hash rows. Point queries return the minimum of the d
// matching cells, which never underestimates and overestimates by at
// most 2n/w with probability 1−(1/2)^d per query.
//
// In the PODS'12 taxonomy linear sketches are the trivially mergeable
// baseline: the sketch is a linear function of the input frequency
// vector, so merging is cell-wise addition — at the price of a log(1/δ)
// size factor and only probabilistic error, which is exactly the
// trade-off the deterministic counter summaries (packages mg and
// spacesaving) avoid. Every update adds its weight to one cell per
// row, so that addition is exact (R8); the frame's flag byte that
// follows the header is reserved and must be 0.
//
// The matrix is stored as one contiguous backing slice in row-major
// order, so a batch update streams through memory instead of chasing
// per-row allocations, and column indexing uses the multiply-high
// range reduction (Lemire's fastrange) instead of an integer division.
package countmin

import (
	"fmt"
	"math/bits"

	"repro/internal/codec"
	"repro/internal/core"
)

// Sketch is a Count-Min sketch. The zero value is not usable; use New.
// Sketches are not safe for concurrent use.
type Sketch struct {
	width int
	depth int
	seed  uint64
	n     uint64
	cells []uint64 // depth*width counters, row-major
	a, b  []uint64 // per-row multiply-shift hash parameters
}

// New returns an empty sketch with the given geometry. Two sketches
// are mergeable iff they share width, depth and seed.
func New(width, depth int, seed uint64) *Sketch {
	if width < 1 || depth < 1 {
		panic("countmin: width and depth must be >= 1")
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
	s.cells = codec.Resize(s.cells, width*depth)
	s.a = codec.Resize(s.a, depth)
	s.b = codec.Resize(s.b, depth)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < depth; i++ {
		s.a[i] = next() | 1 // multiplier must be odd
		s.b[i] = next()
	}
}

// row returns the i-th row as a view into the backing slice.
func (s *Sketch) row(i int) []uint64 {
	return s.cells[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// Width returns the row width.
func (s *Sketch) Width() int { return s.width }

// Depth returns the number of rows.
func (s *Sketch) Depth() int { return s.depth }

// N returns the total weight summarized, including merged-in weight.
func (s *Sketch) N() uint64 { return s.n }

// cell returns the column index of x in row i: a multiply-shift hash
// range-reduced by multiply-high, which maps the hash's high bits onto
// [0, width) without a division.
func (s *Sketch) cell(i int, x core.Item) int {
	h := s.a[i]*uint64(x) + s.b[i]
	hi, _ := bits.Mul64(h, uint64(s.width))
	return int(hi)
}

// Update adds w >= 1 occurrences of x.
func (s *Sketch) Update(x core.Item, w uint64) {
	if w == 0 {
		panic("countmin: zero-weight update")
	}
	s.n += w
	width := uint64(s.width)
	for i := 0; i < s.depth; i++ {
		hi, _ := bits.Mul64(s.a[i]*uint64(x)+s.b[i], width)
		s.cells[uint64(i)*width+hi] += w
	}
	debugAssertSampled(s)
}

// UpdateAndEstimate adds w >= 1 occurrences of x and returns the point
// estimate after the update. It is equivalent to Update followed by
// Estimate but hashes each row only once, which matters on hot
// ingestion paths that need the fresh estimate (e.g. top-k tracking).
func (s *Sketch) UpdateAndEstimate(x core.Item, w uint64) uint64 {
	if w == 0 {
		panic("countmin: zero-weight update")
	}
	s.n += w
	width := uint64(s.width)
	est := ^uint64(0)
	for i := 0; i < s.depth; i++ {
		hi, _ := bits.Mul64(s.a[i]*uint64(x)+s.b[i], width)
		c := uint64(i)*width + hi
		s.cells[c] += w
		est = min(est, s.cells[c])
	}
	return est
}

// UpdateBatch adds one occurrence of every item in xs. The result is
// identical to calling Update(x, 1) for each x in order, but the batch
// path walks the matrix row-major with the row's hash parameters held
// in registers, hashes unrolled four items at a time, and no division
// in the column reduction.
func (s *Sketch) UpdateBatch(xs []core.Item) {
	if len(xs) == 0 {
		return
	}
	width := uint64(s.width)
	for i := 0; i < s.depth; i++ {
		ai, bi := s.a[i], s.b[i]
		row := s.row(i)
		j := 0
		for ; j+4 <= len(xs); j += 4 {
			c0, _ := bits.Mul64(ai*uint64(xs[j])+bi, width)
			c1, _ := bits.Mul64(ai*uint64(xs[j+1])+bi, width)
			c2, _ := bits.Mul64(ai*uint64(xs[j+2])+bi, width)
			c3, _ := bits.Mul64(ai*uint64(xs[j+3])+bi, width)
			row[c0]++
			row[c1]++
			row[c2]++
			row[c3]++
		}
		for ; j < len(xs); j++ {
			c, _ := bits.Mul64(ai*uint64(xs[j])+bi, width)
			row[c]++
		}
	}
	s.n += uint64(len(xs))
	debugAssert(s)
}

func (s *Sketch) estimate(x core.Item) uint64 {
	min := s.cells[s.cell(0, x)]
	for i := 1; i < s.depth; i++ {
		if v := s.cells[i*s.width+s.cell(i, x)]; v < min {
			min = v
		}
	}
	return min
}

// Estimate answers a point query. The sketch never underestimates, so
// the true frequency is in [0, Value]; the expected overestimate is at
// most 2n/width per row.
func (s *Sketch) Estimate(x core.Item) core.Estimate {
	v := s.estimate(x)
	return core.Estimate{Value: v, Lower: 0, Upper: v}
}

// Merge adds other cell-wise into s. Sketches must share geometry and
// seed.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.width != other.width || s.depth != other.depth || s.seed != other.seed {
		return fmt.Errorf("%w: countmin geometry/seed", core.ErrMismatchedShape)
	}
	for i, v := range other.cells {
		s.cells[i] += v
	}
	s.n += other.n
	debugAssert(s)
	return nil
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(s.width, s.depth, s.seed)
	c.n = s.n
	copy(c.cells, s.cells)
	return c
}

// Reset zeroes the sketch.
func (s *Sketch) Reset() {
	s.n = 0
	clear(s.cells)
}

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled buffer pre-sized for the full counter matrix.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header plus one uvarint per cell; typical counters are small, so
	// size cells at five bytes (uvarint for values < 2^35) rather than
	// the 10-byte worst case to avoid chronic 2x over-allocation.
	w.Grow(4*10 + 1 + s.width*s.depth*5)
	w.Int(s.width)
	w.Int(s.depth)
	w.Uint64(s.seed)
	w.Uint64(s.n)
	w.Bool(false) // reserved flag byte: always 0 (DESIGN.md §8)
	for _, v := range s.cells {
		w.Uint64(v)
	}
	return codec.EncodeFrame(codec.KindCountMin, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The frame is
// decoded into the receiver's own storage: a sketch of the frame's
// geometry and seed keeps its matrix and hash rows and has its cells
// overwritten by one run read, any other receiver (the zero value
// included) is first reshaped exactly as New would build it. A frame
// rejected by a header or geometry check leaves the receiver untouched;
// one that fails inside the counter run, or whose rows break the
// sketch's row-mass law (checkInvariants: every row the same mass, at
// least n, no sum wrapping), leaves it empty.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindCountMin, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	width := r.Int()
	depth := r.Int()
	seed := r.Uint64()
	n := r.Uint64()
	flagged := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if flagged {
		// The byte once marked a conservative-update sketch, whose cells
		// are not a linear image of the stream and so cannot be added.
		return fmt.Errorf("countmin: reserved flag byte set")
	}
	if width < 1 || depth < 1 || width*depth > 1<<28 {
		return fmt.Errorf("countmin: implausible geometry %dx%d", depth, width)
	}
	if width*depth > r.Remaining() {
		// Every cell takes at least one payload byte; reject before
		// allocating attacker-controlled matrix sizes.
		return fmt.Errorf("countmin: geometry %dx%d exceeds payload", depth, width)
	}
	reused := s.width != 0
	s.reshape(width, depth, seed)
	s.n = n
	// Rows are contiguous on the wire and in cells: one run per row
	// hands back each row's mass from the decoding walk.
	var first uint64
	for i := 0; i < depth; i++ {
		mass, ok := r.Uint64s(s.row(i))
		if r.Err() != nil {
			break // Finish reports it
		}
		if i == 0 {
			first = mass
		}
		if !ok || mass < n || mass != first {
			s.Reset()
			return fmt.Errorf("countmin: row %d mass breaks the law: every row carries the same mass, at least n=%d", i, n)
		}
	}
	if err := r.Finish(); err != nil {
		s.Reset()
		return err
	}
	debugAssert(s)
	debugAssertDecoded(s, data, reused)
	return nil
}

var _ core.FrequencySummary = (*Sketch)(nil)
