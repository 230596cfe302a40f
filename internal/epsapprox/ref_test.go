package epsapprox

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

// refSummary is the summary this package shipped before Morton keys
// were cached: it recomputes two keys inside every comparison of an
// unstable closure sort and of every halving step. Kept verbatim as
// the differential oracle — on inputs without tied keys the cached-key
// Summary must reproduce its encoded bytes after every operation.
type refSummary struct {
	s       int // points per block
	n       uint64
	partial []gen.Point   // < s raw points at weight 1
	blocks  [][]gen.Point // blocks[i]: nil or s points at weight 2^i, Z-order sorted
	rng     *gen.RNG
	// Morton quantization box: fixed at construction so that two
	// mergeable summaries agree on the curve.
	box exact.Rect
}

// refHalve is Summary.halve as it shipped before its merge loop lost
// its branches — one branch on the keys per point, one on the
// alternation — kept as the oracle for the branch-free version.
func refHalve(s *Summary, a, b block) block {
	out := s.getBlock(s.s)
	skip := s.rng.Bool()
	ai, bi := 0, 0
	for ai < len(a.pts) || bi < len(b.pts) {
		var p gen.Point
		var k uint32
		if bi >= len(b.pts) || (ai < len(a.pts) && a.keys[ai] <= b.keys[bi]) {
			p, k = a.pts[ai], a.keys[ai]
			ai++
		} else {
			p, k = b.pts[bi], b.keys[bi]
			bi++
		}
		if !skip {
			out.add(p, k)
		}
		skip = !skip
	}
	return out
}

// New returns an empty summary with block size s over the coordinate
// bounding box (points outside are clamped for curve ordering only;
// counting remains exact). Two summaries merge iff they share s and
// the box.
func newRef(s int, box exact.Rect, seed uint64) *refSummary {
	if s < 1 {
		panic("epsapprox: block size must be >= 1")
	}
	if !(box.X1 > box.X0) || !(box.Y1 > box.Y0) {
		panic("epsapprox: degenerate bounding box")
	}
	return &refSummary{s: s, box: box, rng: gen.NewRNG(seed)}
}

// morton maps p to its Z-order index inside the box (16 bits per axis).
func (s *refSummary) morton(p gen.Point) uint64 {
	const bits = 16
	qx := quantize(p.X, s.box.X0, s.box.X1, bits)
	qy := quantize(p.Y, s.box.Y0, s.box.Y1, bits)
	return interleave(qx) | interleave(qy)<<1
}

// Update inserts one point.
func (s *refSummary) Update(p gen.Point) {
	s.n++
	s.partial = append(s.partial, p)
	if len(s.partial) >= s.s {
		s.promotePartial()
	}
}

func (s *refSummary) promotePartial() {
	b := make([]gen.Point, len(s.partial))
	copy(b, s.partial)
	s.partial = s.partial[:0]
	s.sortZ(b)
	s.carry(b, 0)
}

func (s *refSummary) sortZ(ps []gen.Point) {
	sort.Slice(ps, func(i, j int) bool { return s.morton(ps[i]) < s.morton(ps[j]) })
}

func (s *refSummary) carry(b []gen.Point, i int) {
	for {
		for len(s.blocks) <= i {
			s.blocks = append(s.blocks, nil)
		}
		if s.blocks[i] == nil {
			s.blocks[i] = b
			return
		}
		b = s.halve(s.blocks[i], b)
		s.blocks[i] = nil
		i++
	}
}

// halve merges two Z-sorted blocks and keeps alternate points with a
// random offset — the low-discrepancy halving primitive.
func (s *refSummary) halve(a, b []gen.Point) []gen.Point {
	union := make([]gen.Point, 0, len(a)+len(b))
	ai, bi := 0, 0
	for ai < len(a) || bi < len(b) {
		if bi >= len(b) || (ai < len(a) && s.morton(a[ai]) <= s.morton(b[bi])) {
			union = append(union, a[ai])
			ai++
		} else {
			union = append(union, b[bi])
			bi++
		}
	}
	offset := 0
	if s.rng.Bool() {
		offset = 1
	}
	out := make([]gen.Point, 0, (len(union)+1)/2)
	for i := offset; i < len(union); i += 2 {
		out = append(out, union[i])
	}
	return out
}

// Merge folds other into s; summaries must share block size and box.
// other is not modified.
func (s *refSummary) Merge(other *refSummary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.s != other.s || s.box != other.box {
		return fmt.Errorf("%w: epsapprox shape", core.ErrMismatchedShape)
	}
	s.n += other.n
	for i := len(other.blocks) - 1; i >= 0; i-- {
		if other.blocks[i] != nil {
			b := make([]gen.Point, len(other.blocks[i]))
			copy(b, other.blocks[i])
			s.carry(b, i)
		}
	}
	for _, p := range other.partial {
		s.partial = append(s.partial, p)
		if len(s.partial) >= s.s {
			s.promotePartial()
		}
	}
	return nil
}

// StoredWeight returns the total weight of stored points; the
// hierarchy conserves it exactly (equal to N).
func (s *refSummary) StoredWeight() uint64 {
	var w uint64
	for i, b := range s.blocks {
		w += uint64(len(b)) << uint(i)
	}
	return w + uint64(len(s.partial))
}

// Clone returns a deep copy (with a re-derived RNG).
func (s *refSummary) Clone() *refSummary {
	c := newRef(s.s, s.box, s.rng.Uint64())
	c.n = s.n
	c.partial = append([]gen.Point(nil), s.partial...)
	c.blocks = make([][]gen.Point, len(s.blocks))
	for i, b := range s.blocks {
		if b != nil {
			c.blocks[i] = append([]gen.Point(nil), b...)
		}
	}
	return c
}

// checkInvariants verifies structural invariants; used by tests.
func (s *refSummary) checkInvariants() error {
	if len(s.partial) >= s.s {
		return fmt.Errorf("partial %d >= s=%d", len(s.partial), s.s)
	}
	for i, b := range s.blocks {
		if b == nil {
			continue
		}
		if len(b) != s.s {
			return fmt.Errorf("block %d has %d points, want %d", i, len(b), s.s)
		}
		for j := 1; j < len(b); j++ {
			if s.morton(b[j-1]) > s.morton(b[j]) {
				return fmt.Errorf("block %d not Z-sorted", i)
			}
		}
	}
	if s.StoredWeight() != s.n {
		return fmt.Errorf("stored weight %d != n %d", s.StoredWeight(), s.n)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. The RNG state is
// re-derived so a decoded summary continues a deterministic sequence.
func (s *refSummary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header (size, box, n, seed, lengths) plus 16 bytes per stored
	// point and a length uvarint per block.
	pts := len(s.partial)
	for _, b := range s.blocks {
		pts += len(b)
	}
	w.Grow(4*10 + 4*8 + len(s.blocks)*10 + pts*16)
	w.Int(s.s)
	w.Float64(s.box.X0)
	w.Float64(s.box.Y0)
	w.Float64(s.box.X1)
	w.Float64(s.box.Y1)
	w.Uint64(s.n)
	w.Uint64(s.rng.State())
	w.Int(len(s.partial))
	for _, p := range s.partial {
		w.Float64(p.X)
		w.Float64(p.Y)
	}
	w.Int(len(s.blocks))
	for _, b := range s.blocks {
		w.Int(len(b))
		for _, p := range b {
			w.Float64(p.X)
			w.Float64(p.Y)
		}
	}
	return codec.EncodeFrame(codec.KindRangeCount, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *refSummary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRangeCount, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	size := r.Int()
	box := exact.Rect{X0: r.Float64(), Y0: r.Float64(), X1: r.Float64(), Y1: r.Float64()}
	n := r.Uint64()
	seed := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 || !(box.X1 > box.X0) || !(box.Y1 > box.Y0) {
		return fmt.Errorf("epsapprox: invalid frame header")
	}
	out := newRef(size, box, seed)
	out.n = n
	np := r.ArrayLen(16)
	if r.Err() != nil {
		return r.Err()
	}
	if np >= size {
		return fmt.Errorf("epsapprox: partial %d exceeds block size %d", np, size)
	}
	for i := 0; i < np; i++ {
		out.partial = append(out.partial, gen.Point{X: r.Float64(), Y: r.Float64()})
	}
	nb := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	out.blocks = make([][]gen.Point, nb)
	for i := 0; i < nb; i++ {
		bl := r.ArrayLen(16)
		if r.Err() != nil {
			return r.Err()
		}
		if bl == 0 {
			continue
		}
		if bl != size {
			return fmt.Errorf("epsapprox: block %d has %d points, want %d", i, bl, size)
		}
		b := make([]gen.Point, bl)
		for j := range b {
			b[j] = gen.Point{X: r.Float64(), Y: r.Float64()}
		}
		out.blocks[i] = b
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if err := out.checkInvariants(); err != nil {
		return fmt.Errorf("epsapprox: decoded summary invalid: %w", err)
	}
	*s = *out
	return nil
}
