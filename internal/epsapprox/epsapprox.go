// Package epsapprox implements a mergeable ε-approximation summary for
// 2-D range counting (PODS'12 §4): a weighted point set Q such that for
// every axis-aligned rectangle R,
//
//	| weight(Q ∩ R) − |P ∩ R| |  ≤  ε·|P|
//
// under arbitrary merges. The structure is the quantile summary's
// logarithmic block hierarchy (a 1-D ε-approximation *is* a quantile
// summary), internal/levels, with Morton keys and the points beside
// them as payload; the per-level primitive is an equal-weight halving
// of 2s points down to s points. This package adds the Morton keying,
// RangeCount, the box, and its frame header.
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
package epsapprox

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/levels"
)

// maxBlockSize bounds the points per block: a full partial is sorted
// by (32-bit Morton key, 32-bit position) packed into one word.
const maxBlockSize = 1 << 32

// Summary is a mergeable 2-D range-counting summary: a hierarchy whose
// partial holds fewer than s raw points at weight 1, in arrival order,
// and whose level i holds no block or s points at weight 2^i, Z-order
// sorted. The zero value is not usable; use New. Not safe for
// concurrent use.
type Summary struct {
	lv stack
	// Morton quantization box: fixed at construction so that two
	// mergeable summaries agree on the curve.
	box exact.Rect
}

type (
	stack = levels.Stack[uint32, gen.Point]
	run   = levels.Run[uint32, gen.Point]
	runs  = levels.Runs[uint32, gen.Point]
)

// lender lends each call its sort run and retired block storage.
var lender core.Pool[runs]

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
	return &Summary{lv: stack{S: s, RNG: gen.NewRNG(seed)}, box: box}
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
func (s *Summary) BlockSize() int { return s.lv.S }

// N returns the number of points summarized, including merges.
func (s *Summary) N() uint64 { return s.lv.N }

// Size returns the number of stored points.
func (s *Summary) Size() int { return s.lv.Size() }

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

// Update inserts one point.
func (s *Summary) Update(p gen.Point) {
	s.lv.N++
	s.lv.Partial.Add(mortonKey(s.box, p), p)
	if len(s.lv.Partial.Keys) >= s.lv.S {
		rs := lender.Get()
		s.lv.Promote(rs, sortZ)
		lender.Put(rs)
		debugAssert(s)
	}
}

// sortZ is the promote sort: a stable radix sort on the cached keys —
// each packed over its point's position, which rides along as payload
// and so breaks ties by arrival — gathered into dst.
func sortZ(dst, src run, scratch *[]uint64) {
	n := len(src.Keys)
	*scratch = codec.Resize(*scratch, 2*n)
	ord := (*scratch)[:n]
	for j, k := range src.Keys {
		ord[j] = uint64(k)<<32 | uint64(j)
	}
	core.SortKeys(ord, (*scratch)[n:], 32, 64)
	for j, o := range ord {
		dst.Keys[j], dst.Pay[j] = uint32(o>>32), src.Pay[uint32(o)]
	}
}

// Merge folds other into s; summaries must share block size and box.
// other is not modified: its blocks are carried in from the top level
// down, then its partial's points join s's one at a time.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.lv.S != other.lv.S || s.box != other.box {
		return fmt.Errorf("%w: epsapprox shape", core.ErrMismatchedShape)
	}
	rs := lender.Get()
	s.lv.Absorb(rs, &other.lv, 0)
	for j, k := range other.lv.Partial.Keys {
		s.lv.Partial.Add(k, other.lv.Partial.Pay[j])
		if len(s.lv.Partial.Keys) >= s.lv.S {
			s.lv.Promote(rs, sortZ)
		}
	}
	lender.Put(rs)
	debugAssert(s)
	return nil
}

// RangeCount estimates the number of summarized points inside r.
func (s *Summary) RangeCount(r exact.Rect) uint64 {
	var c uint64
	for i, b := range s.lv.Blocks {
		var in uint64
		for _, p := range b.Pay {
			if r.Contains(p) {
				in++
			}
		}
		c += in << uint(i)
	}
	for _, p := range s.lv.Partial.Pay {
		if r.Contains(p) {
			c++
		}
	}
	return c
}

// StoredWeight returns the total weight of stored points; the
// hierarchy conserves it exactly (equal to N).
func (s *Summary) StoredWeight() uint64 { return s.lv.StoredWeight() }

// Clone returns a deep copy (with a re-derived RNG).
func (s *Summary) Clone() *Summary {
	return &Summary{lv: s.lv.Clone(), box: s.box}
}

// checkInvariants reports the first law s breaks: a cached Morton key
// that differs from a fresh computation (every sort and halving trusts
// the keys instead of the points, so a stale one would silently bend
// the curve order), or a shape levels.Stack.Check refuses — a short
// partial, full Z-sorted blocks, keys in step with points, and a stored
// weight of exactly n; used by tests and the sanitize layer.
func (s *Summary) checkInvariants() error {
	if j := s.staleKey(s.lv.Partial); j >= 0 {
		return fmt.Errorf("partial point %d carries a stale Morton key", j)
	}
	for i, b := range s.lv.Blocks {
		if j := s.staleKey(b); j >= 0 {
			return fmt.Errorf("block %d point %d carries a stale Morton key", i, j)
		}
	}
	return s.lv.Check()
}

// staleKey returns the first point of b whose cached key differs from
// a fresh computation, or -1.
func (s *Summary) staleKey(b run) int {
	for j, p := range b.Pay {
		if j >= len(b.Keys) || uint64(b.Keys[j]) != s.morton(p) {
			return j
		}
	}
	return -1
}

// putPoints writes a run's points, 16 bytes each; the keys do not
// travel.
func putPoints(w *codec.Buffer, r run) {
	for _, p := range r.Pay {
		w.Float64(p.X)
		w.Float64(p.Y)
	}
}

// getPoints reads a run's points from their bytes and keys each inside
// box as it arrives.
func getPoints(b []byte, dst run, box exact.Rect) {
	for j := range dst.Keys {
		p := gen.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[16*j:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[16*j+8:])),
		}
		dst.Pay[j], dst.Keys[j] = p, mortonKey(box, p)
	}
}
