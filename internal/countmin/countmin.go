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
// spacesaving) avoid.
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
	width        int
	depth        int
	seed         uint64
	n            uint64
	cells        []uint64 // depth*width counters, row-major
	a, b         []uint64 // per-row multiply-shift hash parameters
	conservative bool
	// scratch holds one column index per row so an item's cells are
	// hashed once and reused (conservative updates, UpdateAndEstimate,
	// batch paths). Lazily allocated; never shared between sketches.
	scratch []int
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

// NewEpsilonDelta returns a sketch with error at most eps*n per point
// query with probability 1-delta: width = ceil(2/eps), depth =
// ceil(log2(1/delta)).
func NewEpsilonDelta(eps, delta float64, seed uint64) *Sketch {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("countmin: eps and delta must be in (0, 1)")
	}
	width := int(2/eps + 0.9999999)
	depth := 1
	for p := 0.5; p > delta; p *= 0.5 {
		depth++
	}
	return New(width, depth, seed)
}

// SetConservative switches the sketch to conservative updating
// (increment only the cells that equal the current minimum estimate),
// which reduces overestimation on skewed streams. Conservative
// sketches remain point-query-compatible but are no longer linear, so
// merging them is an upper-bound approximation (still never
// underestimates).
func (s *Sketch) SetConservative(on bool) { s.conservative = on }

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
	if !s.conservative {
		width := uint64(s.width)
		for i := 0; i < s.depth; i++ {
			hi, _ := bits.Mul64(s.a[i]*uint64(x)+s.b[i], width)
			s.cells[uint64(i)*width+hi] += w
		}
		debugAssertSampled(s)
		return
	}
	s.conservativeUpdate(x, w)
	debugAssertSampled(s)
}

// cells fills the scratch buffer with x's column index in every row and
// returns it. The buffer is reused across calls, so each item is hashed
// only once even when its cells are read and then written.
func (s *Sketch) cellIdx(x core.Item) []int {
	if cap(s.scratch) < s.depth {
		s.scratch = make([]int, s.depth)
	}
	idx := s.scratch[:s.depth]
	width := uint64(s.width)
	for i := 0; i < s.depth; i++ {
		hi, _ := bits.Mul64(s.a[i]*uint64(x)+s.b[i], width)
		idx[i] = int(hi)
	}
	return idx
}

// conservativeUpdate raises every cell of x to at most est+w and
// returns the new estimate (which is exactly est+w: the minimum cell is
// raised to the target and no cell ends below it). It does not touch n.
func (s *Sketch) conservativeUpdate(x core.Item, w uint64) uint64 {
	idx := s.cellIdx(x)
	min := s.cells[idx[0]]
	for i := 1; i < s.depth; i++ {
		if v := s.cells[i*s.width+idx[i]]; v < min {
			min = v
		}
	}
	target := min + w
	for i := 0; i < s.depth; i++ {
		if c := i*s.width + idx[i]; s.cells[c] < target {
			s.cells[c] = target
		}
	}
	return target
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
	if s.conservative {
		return s.conservativeUpdate(x, w)
	}
	idx := s.cellIdx(x)
	s.cells[idx[0]] += w
	min := s.cells[idx[0]]
	for i := 1; i < s.depth; i++ {
		c := i*s.width + idx[i]
		s.cells[c] += w
		if v := s.cells[c]; v < min {
			min = v
		}
	}
	return min
}

// UpdateBatch adds one occurrence of every item in xs. The result is
// identical to calling Update(x, 1) for each x in order, but the batch
// path walks the matrix row-major with the row's hash parameters held
// in registers, hashes unrolled four items at a time, and no division
// in the column reduction.
//
//sketch:hotpath
func (s *Sketch) UpdateBatch(xs []core.Item) {
	if len(xs) == 0 {
		return
	}
	if s.conservative {
		for _, x := range xs {
			s.conservativeUpdate(x, 1)
		}
		s.n += uint64(len(xs))
		debugAssert(s)
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

// UpdateBatchWeighted adds Count occurrences of every Item in ws, the
// weighted variant of UpdateBatch. All weights must be >= 1.
//
//sketch:hotpath
func (s *Sketch) UpdateBatchWeighted(ws []core.Counter) {
	if len(ws) == 0 {
		return
	}
	var total uint64
	for _, c := range ws {
		if c.Count == 0 {
			panic("countmin: zero-weight update")
		}
		total += c.Count
	}
	if s.conservative {
		for _, c := range ws {
			s.conservativeUpdate(c.Item, c.Count)
		}
		s.n += total
		debugAssert(s)
		return
	}
	width := uint64(s.width)
	for i := 0; i < s.depth; i++ {
		ai, bi := s.a[i], s.b[i]
		row := s.row(i)
		j := 0
		for ; j+2 <= len(ws); j += 2 {
			c0, _ := bits.Mul64(ai*uint64(ws[j].Item)+bi, width)
			c1, _ := bits.Mul64(ai*uint64(ws[j+1].Item)+bi, width)
			row[c0] += ws[j].Count
			row[c1] += ws[j+1].Count
		}
		if j < len(ws) {
			c, _ := bits.Mul64(ai*uint64(ws[j].Item)+bi, width)
			row[c] += ws[j].Count
		}
	}
	s.n += total
	debugAssert(s)
}

// Remove subtracts w occurrences of x — the strict-turnstile model,
// where deletions never exceed prior insertions of the same item. As
// long as the caller honours that contract the no-underestimate
// guarantee is preserved (each cell's surplus from other items only
// shrinks); violating it makes estimates meaningless, and cells are
// clamped at zero rather than wrapping. Conservative-update sketches
// are not linear and cannot support deletions; Remove panics on them.
func (s *Sketch) Remove(x core.Item, w uint64) {
	if w == 0 {
		panic("countmin: zero-weight remove")
	}
	if s.conservative {
		panic("countmin: conservative sketches do not support Remove")
	}
	if w > s.n {
		w = s.n
	}
	s.n -= w
	for i := 0; i < s.depth; i++ {
		c := i*s.width + s.cell(i, x)
		if s.cells[c] >= w {
			s.cells[c] -= w
		} else {
			s.cells[c] = 0
		}
	}
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
// seed. For conservative sketches the result remains a valid upper
// bound but may overestimate more than a directly-built sketch.
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

// Merged returns the merge of a and b without modifying either.
func Merged(a, b *Sketch) (*Sketch, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// HeavyHittersOver returns the candidates whose estimate reaches
// threshold, in descending estimate order. Because the sketch has no
// item directory, callers supply the candidate set (e.g. the stream's
// universe or a tracked top-k list).
func (s *Sketch) HeavyHittersOver(candidates []core.Item, threshold uint64) []core.Counter {
	var out []core.Counter
	for _, x := range candidates {
		if v := s.estimate(x); v >= threshold {
			out = append(out, core.Counter{Item: x, Count: v})
		}
	}
	core.SortCountersDesc(out)
	return out
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(s.width, s.depth, s.seed)
	c.n = s.n
	c.conservative = s.conservative
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
	w.Bool(s.conservative)
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
// one that fails inside the counter run leaves it empty.
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
	conservative := r.Bool()
	if r.Err() != nil {
		return r.Err()
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
	s.n, s.conservative = n, conservative
	r.Uint64s(s.cells)
	if err := r.Finish(); err != nil {
		s.Reset()
		return err
	}
	debugAssertDecoded(s, data, reused)
	return nil
}

var _ core.FrequencySummary = (*Sketch)(nil)
