// Package epsapprox implements a mergeable ε-approximation summary for
// 2-D range counting (PODS'12 §4): a weighted point set Q such that for
// every axis-aligned rectangle R,
//
//	| weight(Q ∩ R) − |P ∩ R| |  ≤  ε·|P|
//
// under arbitrary merges. The structure mirrors the quantile summary's
// logarithmic block hierarchy (a 1-D ε-approximation *is* a quantile
// summary); the per-level primitive is an equal-weight halving of 2s
// points down to s points.
//
// Substitution note (DESIGN.md §2): the paper's halving is a
// deterministic low-discrepancy coloring with large constants; this
// implementation halves by sorting points along a Z-order (Morton)
// space-filling curve and keeping alternate points with a random
// offset. Z-order alternation is a practical low-discrepancy halving
// for axis-aligned rectangles: any rectangle decomposes into O(log²)
// Z-order intervals, and alternation errs by at most 1 per interval.
// Mergeability and the ε·n error shape are preserved; experiment E10
// measures the realized discrepancy against ε·n.
//
// Every stored point carries its Morton key beside it, computed once
// when the point is inserted or decoded: sorting a full partial and
// halving two blocks compare cached integers, never recompute a key.
// A summary keeps only its state: the sort run, the decode's read run
// and level table, and retired block storage are borrowed for the
// length of a call from a pooled lender, so the steady-state update,
// merge and decode paths do not allocate, and a fresh summary
// allocates what it keeps.
package epsapprox

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

// maxBlockSize bounds the points per block: a full partial is sorted
// by (32-bit Morton key, 32-bit position) packed into one word.
const maxBlockSize = 1 << 32

// maxLevels bounds the block hierarchy: a block at level i weighs
// s·2^i, which must fit the uint64 weight n.
const maxLevels = 64

// Summary is a mergeable 2-D range-counting summary. The zero value is
// not usable; use New. Not safe for concurrent use.
type Summary struct {
	s       int // points per block
	n       uint64
	partial block   // < s raw points at weight 1, in arrival order
	blocks  []block // blocks[i]: empty or s points at weight 2^i, Z-order sorted
	rng     *gen.RNG
	// Morton quantization box: fixed at construction so that two
	// mergeable summaries agree on the curve.
	box exact.Rect
}

// runs is the scratch a call borrows from lender and hands back before
// it returns.
type runs struct {
	free   []block   // recycled block storage
	stage  []block   // UnmarshalBinary's level table while a frame is unvalidated
	coords []float64 // UnmarshalBinary's read run: one block's x, y pairs
	order  []uint64  // promotePartial's sort run and the kernel's scratch
}

var lender core.Pool[runs]

// maxFree caps a free list: storage retired past it is dropped.
const maxFree = 2 * maxLevels

// block is a run of points with their cached Morton keys: keys[j] is
// pts[j]'s Z-order index, computed once when the point is inserted or
// decoded. A level with no block holds the zero block.
type block struct {
	pts  []gen.Point
	keys []uint32
}

func (b *block) add(p gen.Point, key uint32) {
	b.pts, b.keys = append(b.pts, p), append(b.keys, key)
}

// addCoords appends the points whose coordinates xy lists as x, y
// pairs, keying each inside box. The block must have room for them.
func (b *block) addCoords(box exact.Rect, xy []float64) {
	at := len(b.pts)
	b.pts, b.keys = b.pts[:at+len(xy)/2], b.keys[:at+len(xy)/2]
	for j := range b.pts[at:] {
		p := gen.Point{X: xy[2*j], Y: xy[2*j+1]}
		b.pts[at+j], b.keys[at+j] = p, mortonKey(box, p)
	}
}

// New returns an empty summary with block size s over the coordinate
// bounding box (points outside are clamped for curve ordering only;
// counting remains exact). Two summaries merge iff they share s and
// the box.
func New(s int, box exact.Rect, seed uint64) *Summary {
	if s < 1 || uint64(s) > maxBlockSize {
		panic("epsapprox: block size must be in [1, 2^32]")
	}
	if !(box.X1 > box.X0) || !(box.Y1 > box.Y0) {
		panic("epsapprox: degenerate bounding box")
	}
	return &Summary{s: s, box: box, rng: gen.NewRNG(seed)}
}

// NewEpsilon sizes the summary for rectangle-count error ~eps*n:
// s = ceil((4/eps)·(log2(1/eps)+1)), reflecting the extra log factor
// of 2-D discrepancy relative to the 1-D quantile case.
func NewEpsilon(eps float64, box exact.Rect, seed uint64) *Summary {
	if eps <= 0 || eps >= 1 {
		panic("epsapprox: eps must be in (0, 1)")
	}
	s := int(math.Ceil(4 / eps * (math.Log2(1/eps) + 1)))
	return New(s, box, seed)
}

// BlockSize returns the points-per-block parameter.
func (s *Summary) BlockSize() int { return s.s }

// N returns the number of points summarized, including merges.
func (s *Summary) N() uint64 { return s.n }

// Size returns the number of stored points.
func (s *Summary) Size() int {
	total := len(s.partial.pts)
	for _, b := range s.blocks {
		total += len(b.pts)
	}
	return total
}

// morton maps p to its Z-order index inside the box (16 bits per axis).
func (s *Summary) morton(p gen.Point) uint64 { return uint64(mortonKey(s.box, p)) }

// mortonKey is the Z-order index of p inside box: 16 bits per axis,
// interleaved into 32.
func mortonKey(box exact.Rect, p gen.Point) uint32 {
	const axisBits = 16
	qx := quantize(p.X, box.X0, box.X1, axisBits)
	qy := quantize(p.Y, box.Y0, box.Y1, axisBits)
	return uint32(interleave(qx) | interleave(qy)<<1)
}

func quantize(v, lo, hi float64, bits uint) uint32 {
	t := (v - lo) / (hi - lo)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	max := float64(uint32(1)<<bits - 1)
	return uint32(t * max)
}

// interleave spreads the low 16 bits of v into even bit positions.
func interleave(v uint32) uint64 {
	x := uint64(v) & 0xffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// block returns empty block storage with room for n points: recycled
// from the free list when a block there has room for n and at most
// most, new otherwise. Callers ask for at most twice n, so no summary
// keeps storage sized for another's blocks; a decoded partial, which
// grows to a block, asks for up to twice the block size.
func (rs *runs) block(n, most int) block {
	for i := len(rs.free) - 1; i >= 0; i-- {
		b := rs.free[i]
		if c := min(cap(b.pts), cap(b.keys)); c >= n && c <= most {
			last := len(rs.free) - 1
			rs.free[i], rs.free[last] = rs.free[last], block{}
			rs.free = rs.free[:last]
			return block{b.pts[:0], b.keys[:0]}
		}
	}
	return block{make([]gen.Point, 0, n), make([]uint32, 0, n)}
}

// retire recycles block storage nothing references any more.
func (rs *runs) retire(b block) {
	if b.pts != nil && len(rs.free) < maxFree {
		rs.free = append(rs.free, b)
	}
}

// Update inserts one point.
func (s *Summary) Update(p gen.Point) {
	s.n++
	s.partial.add(p, mortonKey(s.box, p))
	if len(s.partial.pts) >= s.s {
		rs := lender.Get()
		s.promotePartial(rs)
		lender.Put(rs)
	}
}

// promotePartial turns the full partial into a level-0 block: a stable
// radix sort on the cached keys — each packed over its point's position,
// which rides along as payload and so breaks ties by arrival — gathered
// into recycled storage.
func (s *Summary) promotePartial(rs *runs) {
	n := len(s.partial.keys)
	rs.order = codec.Resize(rs.order, 2*n)
	ord := rs.order[:n]
	for j, k := range s.partial.keys {
		ord[j] = uint64(k)<<32 | uint64(j)
	}
	core.SortKeys(ord, rs.order[n:], 32, 64)
	b := rs.block(s.s, 2*s.s)
	for _, o := range ord {
		b.add(s.partial.pts[uint32(o)], uint32(o>>32))
	}
	s.partial = block{s.partial.pts[:0], s.partial.keys[:0]}
	s.carry(rs, b, 0, true)
	debugAssert(s, false)
}

// carry places b at level i, halving it with the occupant and moving
// up while the level is taken. An owned b is the summary's to keep or
// recycle; a borrowed one (another summary's block) is only read — it
// is halved where it lies, and copied only if its level is free.
func (s *Summary) carry(rs *runs, b block, i int, owned bool) {
	for {
		for len(s.blocks) <= i {
			s.blocks = append(s.blocks, block{})
		}
		occ := s.blocks[i]
		if occ.pts == nil {
			if !owned {
				c := rs.block(s.s, 2*s.s)
				b = block{append(c.pts, b.pts...), append(c.keys, b.keys...)}
			}
			s.blocks[i] = b
			return
		}
		s.blocks[i] = block{}
		out := s.halve(rs, occ, b)
		rs.retire(occ)
		if owned {
			rs.retire(b)
		}
		b, owned = out, true
		i++
	}
}

// halve merges two Z-sorted blocks by cached key and keeps alternate
// points with a random offset — the low-discrepancy halving primitive.
// The inputs are only read; the result is built in recycled storage.
//
// No branch depends on the keys: a branch there mispredicts on about
// every other point of a block the predictor has never seen. The
// output is sized once — (|a|+|b|+1−skip)/2 points, skip being the
// rng.Bool() draw — and the merge loop writes every point it takes to
// out[w], moving w on only for a kept one, so a dropped point is
// overwritten by the next; the operand is picked by a select on the
// two keys (ties to a). While both operands have points another one
// follows, so w never reaches the end there; the one tail left is then
// copied every other point in a plain loop.
func (s *Summary) halve(rs *runs, a, b block) block {
	keep := 1
	if s.rng.Bool() {
		keep = 0
	}
	size := (len(a.pts) + len(b.pts) + keep) / 2
	out := rs.block(size, 2*size)
	out.pts, out.keys = out.pts[:size], out.keys[:size]
	ai, bi, w := 0, 0, 0
	for ai < len(a.pts) && bi < len(b.pts) {
		ka, kb, pa, pb := a.keys[ai], b.keys[bi], a.pts[ai], b.pts[bi]
		fromA := 0
		if ka <= kb {
			fromA = 1 // a SETcc, not a branch
		}
		// The point is selected by mask on its bits: the compiler will
		// not turn a select of a float, or of a pointer it then loads
		// through, into a conditional move.
		m := -uint64(fromA)
		out.pts[w] = gen.Point{X: sel(m, pa.X, pb.X), Y: sel(m, pa.Y, pb.Y)}
		out.keys[w] = min(ka, kb)
		w += keep
		keep ^= 1
		ai += fromA
		bi += 1 - fromA
	}
	tail := block{a.pts[ai:], a.keys[ai:]} // at most one tail is left
	if bi < len(b.pts) {
		tail = block{b.pts[bi:], b.keys[bi:]}
	}
	for j := 1 - keep; j < len(tail.pts); j += 2 {
		out.pts[w], out.keys[w] = tail.pts[j], tail.keys[j]
		w++
	}
	return out
}

// sel returns x where the mask m is all ones and y where it is zero,
// bit for bit.
func sel(m uint64, x, y float64) float64 {
	xb, yb := math.Float64bits(x), math.Float64bits(y)
	return math.Float64frombits(yb ^ (xb^yb)&m)
}

// Merge folds other into s; summaries must share block size and box.
// other is not modified.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.s != other.s || s.box != other.box {
		return fmt.Errorf("%w: epsapprox shape", core.ErrMismatchedShape)
	}
	rs := lender.Get()
	s.absorb(rs, other)
	lender.Put(rs)
	debugAssert(s, true)
	return nil
}

// absorb is Merge past the shape check.
func (s *Summary) absorb(rs *runs, other *Summary) {
	s.n += other.n
	for i := len(other.blocks) - 1; i >= 0; i-- {
		if ob := other.blocks[i]; ob.pts != nil {
			s.carry(rs, ob, i, false)
		}
	}
	for j, p := range other.partial.pts {
		s.partial.add(p, other.partial.keys[j])
		if len(s.partial.pts) >= s.s {
			s.promotePartial(rs)
		}
	}
}

// RangeCount estimates the number of summarized points inside r.
func (s *Summary) RangeCount(r exact.Rect) uint64 {
	var c uint64
	for i, b := range s.blocks {
		var in uint64
		for _, p := range b.pts {
			if r.Contains(p) {
				in++
			}
		}
		c += in << uint(i)
	}
	for _, p := range s.partial.pts {
		if r.Contains(p) {
			c++
		}
	}
	return c
}

// StoredWeight returns the total weight of stored points; the
// hierarchy conserves it exactly (equal to N).
func (s *Summary) StoredWeight() uint64 {
	var w uint64
	for i, b := range s.blocks {
		w += uint64(len(b.pts)) << uint(i)
	}
	return w + uint64(len(s.partial.pts))
}

func (b block) clone() block {
	return block{slices.Clone(b.pts), slices.Clone(b.keys)}
}

// Clone returns a deep copy (with a re-derived RNG).
func (s *Summary) Clone() *Summary {
	c := New(s.s, s.box, s.rng.Uint64())
	c.n = s.n
	c.partial = s.partial.clone()
	c.blocks = make([]block, len(s.blocks))
	for i, b := range s.blocks {
		c.blocks[i] = b.clone()
	}
	return c
}

// checkInvariants verifies structural invariants against the cached
// keys; used by tests.
func (s *Summary) checkInvariants() error {
	return checkShape(s.s, s.n, s.partial, s.blocks)
}

// checkShape verifies that a partial and a level table form a valid
// summary of block size and weight n: a short partial, full Z-sorted
// blocks, keys in step with points, and a stored weight of exactly n.
func checkShape(size int, n uint64, partial block, blocks []block) error {
	if len(partial.pts) >= size {
		return fmt.Errorf("partial %d >= s=%d", len(partial.pts), size)
	}
	if len(partial.keys) != len(partial.pts) {
		return fmt.Errorf("partial has %d points but %d keys", len(partial.pts), len(partial.keys))
	}
	weight := uint64(len(partial.pts))
	for i, b := range blocks {
		if b.pts == nil {
			continue
		}
		if len(b.pts) != size || len(b.keys) != size {
			return fmt.Errorf("block %d has %d points and %d keys, want %d", i, len(b.pts), len(b.keys), size)
		}
		for j := 1; j < len(b.keys); j++ {
			if b.keys[j-1] > b.keys[j] {
				return fmt.Errorf("block %d not Z-sorted", i)
			}
		}
		// A block at level i weighs size·2^i; neither it nor the
		// running total may wrap the uint64 that n is compared against.
		if bits.Len64(uint64(size))+i > 64 {
			return fmt.Errorf("block %d overflows the weight", i)
		}
		var carry uint64
		if weight, carry = bits.Add64(weight, uint64(size)<<uint(i), 0); carry != 0 {
			return fmt.Errorf("stored weight overflows at block %d", i)
		}
	}
	if weight != n {
		return fmt.Errorf("stored weight %d != n %d", weight, n)
	}
	return nil
}

// checkKeys verifies every cached key against a fresh computation.
func (s *Summary) checkKeys() error {
	for j, p := range s.partial.pts {
		if uint64(s.partial.keys[j]) != s.morton(p) {
			return fmt.Errorf("partial point %d carries a stale Morton key", j)
		}
	}
	for i, b := range s.blocks {
		for j, p := range b.pts {
			if uint64(b.keys[j]) != s.morton(p) {
				return fmt.Errorf("block %d point %d carries a stale Morton key", i, j)
			}
		}
	}
	return nil
}
