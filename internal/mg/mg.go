// Package mg implements the Misra–Gries (a.k.a. Frequent) heavy-hitter
// summary and its merge operations.
//
// A Summary with k counters processes a stream of total weight n and
// guarantees, for every item x with true frequency f(x):
//
//	f(x) − n/(k+1) ≤ Estimate(x) ≤ f(x)
//
// i.e. MG never overestimates and undercounts by at most n/(k+1). The
// PODS'12 result reproduced here (Theorem 2.2 of Agarwal, Cormode,
// Huang, Phillips, Wei, Yi, "Mergeable Summaries") is that this summary
// is fully mergeable: Merge preserves both the size k and the error
// bound (n1+n2)/(k+1) under arbitrary merge trees.
//
// Two merge algorithms are provided:
//
//   - Merge: the PODS'12 algorithm — add counters pointwise, then prune
//     back to k counters by subtracting the (k+1)-th largest count.
//   - MergeLowError: the low-total-error variant (Algorithm 2 of the
//     supplied follow-up text by Cafaro, Tempesta and Pulimeno), which
//     produces exactly the summary an MG run over the combined counters
//     would produce, via closed-form equations. Same bound, same O(k)
//     cost, strictly smaller total error except in degenerate cases.
//
// The counter store is a flat open-addressed hash table in
// structure-of-arrays layout (keys and counts are two views of a single
// contiguous backing slice), so the ingestion hot path walks dense
// cache lines instead of chasing map buckets — the high-performance
// frequent-items layout of Anderson et al. (see PAPERS.md). Counts
// double as occupancy: a slot with count 0 is empty, which the MG
// invariant (monitored counts are strictly positive) makes safe.
package mg

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// fibMul is the 64-bit Fibonacci hashing multiplier (the odd integer
// nearest 2^64/φ); taking the high bits of key*fibMul spreads dense and
// strided item spaces evenly across power-of-two tables.
const fibMul = 0x9E3779B97F4A7C15

// tableSizeFor returns the power-of-two slot count for a table that
// must hold occ live counters at load factor <= 5/8.
func tableSizeFor(occ int) int {
	need := occ*8/5 + 1
	if need < 16 {
		need = 16
	}
	return 1 << bits.Len(uint(need-1))
}

// maxOcc is the table occupancy high-water mark for a summary with k
// counters: the batch path defers pruning until k+pruneSlack(k) = 2k
// counters are live, and the prune itself triggers one insert past the
// limit.
func maxOcc(k int) int { return 2*k + 2 }

// Summary is a Misra–Gries summary. The zero value is not usable; use
// New. Summaries are not safe for concurrent use.
type Summary struct {
	k int
	n uint64
	// dec is the cumulative undercount bound: the total amount that
	// pruning has subtracted along any single counter's history. The
	// MG invariant is dec ≤ n/(k+1).
	dec uint64

	// Open-addressed counter table. keys and counts are equal-length
	// views of one backing allocation; counts[i] == 0 marks slot i
	// empty. live is the number of occupied slots, mask = len-1 and
	// shift = 64-log2(len) serve the Fibonacci probe sequence.
	keys   []uint64
	counts []uint64
	live   int
	mask   uint64
	shift  uint
	growAt int

	// pruneBuf is scratch for prune's count selection and for
	// MergeLowError's sort; scratchK and scratchC stage prune survivors
	// during table rebuilds. All are reused across prunes so the hot
	// ingestion path stays allocation-free.
	pruneBuf []uint64
	scratchK []uint64
	scratchC []uint64
	// combined is MergeLowError's scratch for the sorted pointwise sum.
	combined []core.Counter
}

// New returns an empty summary with capacity k >= 1 counters. The
// counter table is sized eagerly for the batch path's full deferred-
// prune footprint (up to 2k live counters) unless k is very large, in
// which case it starts small and grows on demand.
func New(k int) *Summary {
	if k < 1 {
		panic("mg: k must be >= 1")
	}
	s := &Summary{k: k}
	occ := maxOcc(k)
	if occ > 1<<12 {
		occ = 1 << 12
	}
	s.ensure(occ)
	return s
}

// newSized returns a summary whose table holds occ counters without
// growing; used by decode and merge paths that know their footprint.
func newSized(k, occ int) *Summary {
	if k < 1 {
		panic("mg: k must be >= 1")
	}
	s := &Summary{k: k}
	s.ensure(occ)
	return s
}

// ensure guarantees the table can hold occ live counters at the target
// load factor, rehashing into a larger table if needed.
func (s *Summary) ensure(occ int) {
	size := tableSizeFor(occ)
	if len(s.counts) >= size {
		return
	}
	oldKeys, oldCounts := s.keys, s.counts
	buf := make([]uint64, 2*size)
	s.keys = buf[:size:size]
	s.counts = buf[size:]
	s.mask = uint64(size - 1)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.growAt = size/2 + size/8
	s.live = 0
	for i, c := range oldCounts {
		if c != 0 {
			s.insertFresh(oldKeys[i], c)
		}
	}
}

// insertFresh inserts a key known to be absent from the table. The
// caller has already sized the table for the new occupancy.
func (s *Summary) insertFresh(key, count uint64) {
	i := (key * fibMul) >> s.shift
	for s.counts[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.keys[i] = key
	s.counts[i] = count
	s.live++
}

// add adds w to x's counter, inserting it if absent. The table grows
// before an insert would exceed the load limit; lookups of present
// keys never trigger growth, so iterating one summary while adding
// into another (or itself) is safe as long as no new keys appear.
func (s *Summary) add(x core.Item, w uint64) {
	key := uint64(x)
	i := (key * fibMul) >> s.shift
	for {
		c := s.counts[i]
		if c == 0 {
			if s.live >= s.growAt {
				s.ensure(len(s.counts)) // tableSizeFor(size) = 2*size: force a doubling
				s.insertFresh(key, w)
				return
			}
			s.keys[i] = key
			s.counts[i] = w
			s.live++
			return
		}
		if s.keys[i] == key {
			s.counts[i] = c + w
			return
		}
		i = (i + 1) & s.mask
	}
}

// get returns x's counter, or 0 if x is not monitored.
func (s *Summary) get(x core.Item) uint64 {
	if s.live == 0 {
		return 0
	}
	key := uint64(x)
	i := (key * fibMul) >> s.shift
	for {
		c := s.counts[i]
		if c == 0 {
			return 0
		}
		if s.keys[i] == key {
			return c
		}
		i = (i + 1) & s.mask
	}
}

// forEach calls f for every monitored (item, count) pair in table slot
// order. f must not insert into the table.
func (s *Summary) forEach(f func(x core.Item, c uint64)) {
	for i, c := range s.counts {
		if c != 0 {
			f(core.Item(s.keys[i]), c)
		}
	}
}

// clearTable empties the counter table without shrinking it.
func (s *Summary) clearTable() {
	clear(s.counts)
	s.live = 0
}

// NewEpsilon returns a summary sized for frequency error at most eps*n,
// i.e. k = ceil(1/eps) - 1 counters (bound n/(k+1) <= eps*n).
func NewEpsilon(eps float64) *Summary {
	if eps <= 0 || eps >= 1 {
		panic("mg: eps must be in (0, 1)")
	}
	k := int(1/eps+0.9999999) - 1
	if k < 1 {
		k = 1
	}
	return New(k)
}

// FromCounters reconstructs a summary from explicit counters, as used
// by the codec and by tests that replay the paper's worked examples.
// n is the total summarized weight and dec the accumulated undercount
// bound. It returns an error if the counters exceed k, repeat an item,
// or contain a zero count. The table is sized for the given counters
// (not k), so decoding a frame allocates in proportion to the payload.
func FromCounters(k int, n, dec uint64, cs []core.Counter) (*Summary, error) {
	if k < 1 {
		return nil, fmt.Errorf("mg: k must be >= 1, have %d", k)
	}
	if len(cs) > k {
		return nil, fmt.Errorf("mg: %d counters exceed k=%d", len(cs), k)
	}
	s := newSized(k, len(cs))
	s.n = n
	s.dec = dec
	for _, c := range cs {
		if err := s.put(c.Item, c.Count); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// put inserts a counter handed in from outside (FromCounters, the
// decoder) into a table already sized for it, rejecting a zero count
// or an item that is already there.
func (s *Summary) put(x core.Item, count uint64) error {
	if count == 0 {
		return fmt.Errorf("mg: zero count for item %d", x)
	}
	if s.get(x) != 0 {
		return fmt.Errorf("mg: duplicate item %d", x)
	}
	s.insertFresh(uint64(x), count)
	return nil
}

// K returns the counter capacity.
func (s *Summary) K() int { return s.k }

// N returns the total weight summarized, including merged-in weight.
func (s *Summary) N() uint64 { return s.n }

// Len returns the number of monitored items (<= K).
func (s *Summary) Len() int { return s.live }

// ErrorBound returns the realized undercount bound: for every item,
// f(x) − Estimate(x).Value <= ErrorBound(). It is always <= n/(k+1).
func (s *Summary) ErrorBound() uint64 { return s.dec }

// Update adds w >= 1 occurrences of x.
func (s *Summary) Update(x core.Item, w uint64) {
	if w == 0 {
		panic("mg: zero-weight update")
	}
	s.n += w
	s.add(x, w)
	if s.live > s.k {
		s.prune()
	}
	debugAssertSampled(s)
}

// prune restores live <= k by subtracting the (k+1)-th largest count
// from every counter and discarding non-positive ones — the PODS'12
// reduction. It increases dec by the subtracted amount. Survivors are
// staged in scratch and reinserted, so the table stays densely probed
// with no tombstones.
func (s *Summary) prune() {
	m := s.live
	if m <= s.k {
		return
	}
	// The (k+1)-th largest is the (m-k)-th smallest.
	vals := s.pruneBuf[:0]
	for _, c := range s.counts {
		if c != 0 {
			vals = append(vals, c)
		}
	}
	s.pruneBuf = vals
	cut := selectKth(vals, m-s.k-1)
	sk, sc := s.scratchK[:0], s.scratchC[:0]
	for i, c := range s.counts {
		if c > cut {
			sk = append(sk, s.keys[i])
			sc = append(sc, c-cut)
		}
		s.counts[i] = 0
	}
	s.scratchK, s.scratchC = sk, sc
	s.live = 0
	for j, key := range sk {
		s.insertFresh(key, sc[j])
	}
	s.dec += cut
}

// Estimate answers a point query. For monitored items the interval is
// [count, count+dec]; for unmonitored items it is [0, dec].
func (s *Summary) Estimate(x core.Item) core.Estimate {
	c := s.get(x)
	return core.Estimate{Value: c, Lower: c, Upper: c + s.dec}
}

// Counters returns the monitored (item, count) pairs in ascending count
// order (ties by item). The slice is freshly allocated.
func (s *Summary) Counters() []core.Counter {
	out := make([]core.Counter, 0, s.live)
	for i, c := range s.counts {
		if c != 0 {
			out = append(out, core.Counter{Item: core.Item(s.keys[i]), Count: c})
		}
	}
	core.SortCountersAsc(out, nil)
	return out
}

// HeavyHitters returns every monitored item whose estimate interval
// can reach threshold, i.e. all candidates with count+dec >= threshold,
// in descending count order. By the MG guarantee this includes every
// item with true frequency >= threshold.
func (s *Summary) HeavyHitters(threshold uint64) []core.Counter {
	var out []core.Counter
	for i, c := range s.counts {
		if c != 0 && c+s.dec >= threshold {
			out = append(out, core.Counter{Item: core.Item(s.keys[i]), Count: c})
		}
	}
	core.SortCountersDesc(out)
	return out
}

// Clone returns a deep copy.
func (s *Summary) Clone() *Summary {
	c := newSized(s.k, s.live)
	c.n = s.n
	c.dec = s.dec
	for i, v := range s.counts {
		if v != 0 {
			c.insertFresh(s.keys[i], v)
		}
	}
	return c
}

// Reset restores the summary to its freshly-constructed state.
func (s *Summary) Reset() {
	s.n = 0
	s.dec = 0
	s.clearTable()
}

var _ core.CounterSummary = (*Summary)(nil)
