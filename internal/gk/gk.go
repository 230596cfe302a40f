// Package gk implements the Greenwald–Khanna (GK) quantile summary: a
// deterministic, compressing summary answering rank and quantile
// queries over a stream of floats with rank error at most εn using
// O((1/ε)·log(εn)) tuples.
//
// In the PODS'12 taxonomy GK is the deterministic baseline: it supports
// streaming insertion and *one-way* merging (folding a summary into
// another via the tuple-merge rule below), but it is not known to be
// fully mergeable — under repeated arbitrary merges the error guarantee
// survives (each merged tuple's uncertainty interval is the sum of its
// bracketing uncertainties, see Merge), while the *size* analysis
// breaks down: compressed size can drift above the single-stream bound.
// Experiment E06 measures exactly this, motivating the randomized
// mergeable summary of package randquant.
package gk

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
)

// tuple summarizes g consecutive elements of the sorted input whose
// largest value is v; delta bounds the extra rank uncertainty. With
// rmin(i) = Σ_{j<=i} g_j the true rank of v_i lies in
// [rmin(i), rmin(i)+delta_i].
type tuple struct {
	v     float64
	g     uint64
	delta uint64
}

// Summary is a GK quantile summary. The zero value is not usable; use
// New. Summaries are not safe for concurrent use.
type Summary struct {
	eps    float64
	n      uint64
	tuples []tuple
	buf    []float64 // pending inserts, flushed in batch
	bufCap int
}

// runs is the scratch a call borrows from lender and hands back before
// it returns: the summary keeps only its state.
type runs struct {
	keys   []uint64 // flush's sort scratch
	tuples []tuple  // Merge's interleaved run and the decoder's read run
}

var lender core.Pool[runs]

// New returns an empty summary with rank-error parameter eps in (0,1).
func New(eps float64) *Summary {
	if eps <= 0 || eps >= 1 {
		panic("gk: eps must be in (0, 1)")
	}
	return &Summary{eps: eps, bufCap: bufCapFor(eps)}
}

// bufCapFor is the pending-insert buffer size of a summary with error
// parameter eps.
func bufCapFor(eps float64) int {
	return max(int(1/(2*eps))+1, 16)
}

// Epsilon returns the summary's error parameter.
func (s *Summary) Epsilon() float64 { return s.eps }

// N returns the number of values summarized, including merged-in ones.
func (s *Summary) N() uint64 { return s.n }

// Size returns the number of stored tuples (pending inserts included
// as one slot each). This is the space the summary actually occupies.
func (s *Summary) Size() int { return len(s.tuples) + len(s.buf) }

// Update inserts one value. NaN is rejected with a panic because it
// has no rank.
func (s *Summary) Update(v float64) {
	if math.IsNaN(v) {
		panic("gk: NaN has no rank")
	}
	s.buf = append(s.buf, v)
	s.n++
	if len(s.buf) >= s.bufCap {
		s.flush()
	}
}

// flush drains the insert buffer into the tuple list (sweep), in
// borrowed scratch.
func (s *Summary) flush() {
	if len(s.buf) == 0 {
		return
	}
	rs := lender.Get()
	s.sweep(rs)
	lender.Put(rs)
}

// threshold is the compress/insert bound floor(2*eps*n).
func threshold(eps float64, n uint64) uint64 {
	return uint64(2 * eps * float64(n))
}

// sweep drains the non-empty insert buffer into the tuple list and
// compresses, in one sweep from the right. The buffer is sorted by core.SortFloats
// (−0 before +0, whichever came first) and merged with the tuples from
// their largest end, a new value landing before the old tuples it does
// not exceed. A new value takes Δ = g+Δ−1 of the old tuple to its
// right (the standard GK insert), or 0 when it is index 0 of the merged
// run (a new minimum) or has no old tuple to its right (a new maximum).
// Each element is settled as the sweep produces it, by compress's
// rule: it folds into the kept tuple to its right (head) when
// g + head.g + head.Δ ≤ ⌊2εn⌋, and the first and last elements always
// stay. These are the decisions, in the same order, of an insert sweep
// followed by compress (ref_test.go keeps that two-pass flush as the
// oracle) — made in one pass over the run instead of two.
//
// The run is written from the right into the tuples' own storage,
// grown to hold it: the write never passes the read, since every
// element written was read at least one step earlier and the tuple a
// new value takes its Δ from lies left of every write.
func (s *Summary) sweep(rs *runs) {
	rs.keys = codec.Resize(rs.keys, 2*len(s.buf))
	core.SortFloats(s.buf, rs.keys)
	old, buf := s.tuples, s.buf
	run := len(old) + len(buf)
	out := slices.Grow(old, len(buf))[:run]
	thr := threshold(s.eps, s.n)
	ti, bi, w := len(old)-1, len(buf)-1, run // w: write index, walking left
	var head tuple
	for i := run - 1; i >= 0; i-- {
		var e tuple
		if ti < 0 || (bi >= 0 && old[ti].v < buf[bi]) {
			e = tuple{v: buf[bi], g: 1}
			if i > 0 && ti+1 < len(old) {
				next := old[ti+1]
				if e.delta = next.g + next.delta; e.delta > 0 {
					e.delta--
				}
			}
			bi--
		} else {
			e = old[ti]
			ti--
		}
		switch {
		case i == run-1: // the last element is the first head
		case i > 0 && e.g+head.g+head.delta <= thr:
			head.g += e.g
			continue
		default:
			w--
			out[w] = head
		}
		head = e
	}
	w--
	out[w] = head
	s.tuples = out[:copy(out, out[w:])]
	s.buf = s.buf[:0]
	debugAssert(s)
}

// compress merges adjacent tuples whose combined uncertainty fits the
// threshold, scanning right to left, and moves the result into dst's
// storage (Merge's own, when it compresses a borrowed run). The first
// and last tuples are preserved so Quantile(0) and Quantile(1) stay
// exact.
func (s *Summary) compress(dst []tuple) {
	if len(s.tuples) < 3 {
		s.tuples = append(dst[:0], s.tuples...)
		return
	}
	thr := threshold(s.eps, s.n)
	out := s.tuples
	w := len(out) - 1 // write index, walking left
	for i := len(out) - 2; i >= 1; i-- {
		t := out[i]
		head := out[w]
		if t.g+head.g+head.delta <= thr {
			// Merge t into its right neighbour.
			head.g += t.g
			out[w] = head
		} else {
			w--
			out[w] = t
		}
	}
	w--
	out[w] = out[0]
	s.tuples = append(dst[:0], out[w:]...)
}

// Flush forces pending inserts into the tuple structure; queries and
// merges do this automatically.
func (s *Summary) Flush() { s.flush() }

// Rank estimates the number of inserted values <= v, with error at
// most εn.
func (s *Summary) Rank(v float64) uint64 {
	s.flush()
	if len(s.tuples) == 0 {
		return 0
	}
	var rmin uint64
	if !(v >= s.tuples[0].v) { // NaN too: no value is <= NaN
		return 0
	}
	for i, t := range s.tuples {
		rmin += t.g
		if i+1 >= len(s.tuples) || s.tuples[i+1].v > v {
			// v falls between t and its successor: its rank is at
			// least rmin and at most rmax(t) + gap to successor.
			var rmaxNext uint64
			if i+1 < len(s.tuples) {
				rmaxNext = rmin + s.tuples[i+1].g + s.tuples[i+1].delta - 1
			} else {
				rmaxNext = s.n
			}
			return (rmin + rmaxNext) / 2
		}
	}
	return s.n
}

// RankBounds returns hard bounds on the rank of v: the number of
// inserted values <= v is guaranteed to lie in [lo, hi]. Unlike Rank,
// which returns a midpoint estimate, these bounds are deterministic
// certificates derived from the tuple invariants.
func (s *Summary) RankBounds(v float64) (lo, hi uint64) {
	s.flush()
	if len(s.tuples) == 0 {
		return 0, 0
	}
	if !(v >= s.tuples[0].v) { // NaN too: no value is <= NaN
		return 0, 0
	}
	var rmin uint64
	for i, t := range s.tuples {
		rmin += t.g
		if i+1 >= len(s.tuples) || s.tuples[i+1].v > v {
			if i+1 < len(s.tuples) {
				next := s.tuples[i+1]
				return rmin, rmin + next.g + next.delta - 1
			}
			return rmin, s.n
		}
	}
	return s.n, s.n
}

// Quantile returns a value whose rank is within εn of phi*N. phi <= 0
// answers the smallest stored value, phi >= 1 or NaN the largest.
func (s *Summary) Quantile(phi float64) float64 {
	s.flush()
	if len(s.tuples) == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return s.tuples[0].v
	}
	if !(phi < 1) {
		return s.tuples[len(s.tuples)-1].v
	}
	r := uint64(math.Ceil(phi * float64(s.n)))
	if r < 1 {
		r = 1
	}
	e := uint64(s.eps * float64(s.n))
	var rmin uint64
	prev := s.tuples[0].v
	for _, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if rmax > r+e {
			return prev
		}
		prev = t.v
	}
	return s.tuples[len(s.tuples)-1].v
}

// Merge folds other into s using the standard GK tuple-merge rule: the
// tuple lists are interleaved in value order and each tuple's delta
// grows by the rank uncertainty of its position in the other summary
// (g_next + delta_next − 1 of the other's bracketing tuple). This
// preserves the invariant g+delta <= 2·eps·(n1+n2) — the error
// parameter survives — but the summary size may exceed the
// single-stream bound (GK is one-way mergeable in the PODS'12
// taxonomy; see the package comment). Summaries must share eps.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.eps != other.eps {
		return fmt.Errorf("%w: eps %v vs %v", core.ErrMismatchedShape, s.eps, other.eps)
	}
	s.flush()
	other.flush()
	if len(other.tuples) == 0 {
		return nil
	}
	if len(s.tuples) == 0 {
		s.tuples = append(s.tuples[:0], other.tuples...)
		s.n += other.n
		debugAssert(s)
		return nil
	}
	a, b := s.tuples, other.tuples
	rs := lender.Get()
	out := slices.Grow(rs.tuples[:0], len(a)+len(b))
	ai, bi := 0, 0
	for ai < len(a) || bi < len(b) {
		var t tuple
		var from, fi int
		if bi >= len(b) || (ai < len(a) && a[ai].v <= b[bi].v) {
			t, from, fi = a[ai], 0, bi
			ai++
		} else {
			t, from, fi = b[bi], 1, ai
			bi++
		}
		// Add the other summary's local uncertainty at this position.
		otherT := b
		if from == 1 {
			otherT = a
		}
		if fi < len(otherT) {
			next := otherT[fi]
			add := next.g + next.delta
			if add > 0 {
				add--
			}
			t.delta += add
		}
		out = append(out, t)
	}
	s.tuples, rs.tuples = out, out[:0]
	s.n += other.n
	s.compress(a)
	lender.Put(rs)
	debugAssert(s)
	return nil
}

// Clone returns a deep copy.
func (s *Summary) Clone() *Summary {
	c := New(s.eps)
	c.n = s.n
	c.tuples = append([]tuple(nil), s.tuples...)
	c.buf = append([]float64(nil), s.buf...)
	return c
}

// Reset restores the summary to its freshly-constructed state.
func (s *Summary) Reset() {
	s.n = 0
	s.tuples = s.tuples[:0]
	s.buf = s.buf[:0]
}

// checkInvariants verifies the GK invariants; used by tests and the
// sanitize layer.
func (s *Summary) checkInvariants() error {
	sumG, err := checkTuples(s.tuples, threshold(s.eps, s.n))
	if err != nil {
		return err
	}
	if sumG+uint64(len(s.buf)) != s.n {
		return fmt.Errorf("Σg=%d + buf=%d != n=%d", sumG, len(s.buf), s.n)
	}
	return nil
}

// checkTuples verifies what every sweep over a tuple list relies on —
// values ascending and none of them NaN (every comparison with NaN is
// false, so an order check alone lets one through), every g ≥ 1, every
// g+Δ ≤ thr+1 — and returns Σg. The sums are taken without wrapping, so
// no frame gets a huge g or Δ past them.
func checkTuples(ts []tuple, thr uint64) (uint64, error) {
	var sumG, carry uint64
	for i, t := range ts {
		switch {
		case math.IsNaN(t.v):
			return 0, fmt.Errorf("tuple %d has a NaN value", i)
		case i > 0 && t.v < ts[i-1].v:
			return 0, fmt.Errorf("tuples not sorted at %d", i)
		case t.g == 0:
			return 0, fmt.Errorf("tuple %d has g=0", i)
		case t.g > thr+1 || t.delta > thr+1-t.g:
			return 0, fmt.Errorf("tuple %d violates g+delta<=2εn+1: %d+%d > %d+1", i, t.g, t.delta, thr)
		}
		if sumG, carry = bits.Add64(sumG, t.g, 0); carry != 0 {
			return 0, fmt.Errorf("Σg overflows at tuple %d", i)
		}
	}
	return sumG, nil
}

var _ core.QuantileSummary = (*Summary)(nil)
