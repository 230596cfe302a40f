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
// The counters are two dense runs, items and counts, over a core.Index
// from item to position — the frequent-items layout of Anderson et al.
// (see PAPERS.md): the ingestion hot path probes one flat table and
// bumps a count in a dense array, with no map buckets to chase, and a
// prune compacts the runs in place.
package mg

import (
	"fmt"

	"repro/internal/core"
)

// maxOcc is the counter high-water mark for a summary with k counters:
// the batch path defers pruning until k+pruneSlack(k) = 2k counters are
// live, and the prune itself triggers one insert past the limit.
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

	// items and counts are the monitored counters, parallel and dense;
	// index maps each item to its position. Counts are strictly
	// positive.
	items  []uint64
	counts []uint64
	index  core.Index
}

// runs is the scratch a call borrows from lender and hands back before
// it returns: the summary keeps only its state. keys are prune's count
// selection and a counter sort's keys; cs are MergeLowError's combined
// counters and MarshalBinary's counters in frame order.
type runs struct {
	cs   []core.Counter
	keys []uint64
}

var lender core.Pool[runs]

// New returns an empty summary with capacity k >= 1 counters. The
// counter storage is sized eagerly for the batch path's full deferred-
// prune footprint (up to 2k live counters) unless k is very large, in
// which case it starts small and grows on demand.
func New(k int) *Summary {
	return newSized(k, min(maxOcc(k), 1<<12))
}

// newSized returns a summary that holds occ counters without growing;
// used by decode and merge paths that know their footprint.
func newSized(k, occ int) *Summary {
	if k < 1 {
		panic("mg: k must be >= 1")
	}
	s := &Summary{k: k}
	s.ensure(occ)
	return s
}

// ensure makes room for occ counters without growing.
func (s *Summary) ensure(occ int) {
	s.index.Reserve(occ)
	if cap(s.items) < occ {
		buf := make([]uint64, 2*occ)
		s.items = append(buf[:0:occ], s.items...)
		s.counts = append(buf[occ:occ], s.counts...)
	}
}

// add adds w to x's counter, inserting it if absent; the index grows
// when it is full.
func (s *Summary) add(x core.Item, w uint64) {
	if s.index.Room() == 0 {
		s.index.Reserve(len(s.items) + 1)
	}
	s.bump(uint64(x), w)
}

// bump adds w to key's counter through one probe, appending a counter
// when key is new; the index must have room for it. The batch paths
// size the storage and the index for their whole deferred-prune
// footprint (limit+1 counters: a prune follows as soon as there are
// more than limit) first, so they call it directly and nothing grows.
func (s *Summary) bump(key, w uint64) {
	i, p := s.index.Slot(key)
	if p >= 0 {
		s.counts[p] += w
		return
	}
	s.index.Put(i, key, int32(len(s.items)))
	s.items = append(s.items, key)
	s.counts = append(s.counts, w)
}

// get returns x's counter, or 0 if x is not monitored.
func (s *Summary) get(x core.Item) uint64 {
	if p := s.index.Find(uint64(x)); p >= 0 {
		return s.counts[p]
	}
	return 0
}

// clearTable empties the counters, keeping the index sized for all the
// counters their storage holds.
func (s *Summary) clearTable() {
	s.index.Reset(cap(s.items))
	s.items, s.counts = s.items[:0], s.counts[:0]
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
// decoder), rejecting a zero count or an item that is already there.
// A rejected item has been added to its counter: both callers drop the
// summary on error.
func (s *Summary) put(x core.Item, count uint64) error {
	if count == 0 {
		return fmt.Errorf("mg: zero count for item %d", x)
	}
	n := len(s.items)
	s.add(x, count)
	if len(s.items) == n {
		return fmt.Errorf("mg: duplicate item %d", x)
	}
	return nil
}

// K returns the counter capacity.
func (s *Summary) K() int { return s.k }

// N returns the total weight summarized, including merged-in weight.
func (s *Summary) N() uint64 { return s.n }

// Len returns the number of monitored items (<= K).
func (s *Summary) Len() int { return len(s.items) }

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
	if len(s.items) > s.k {
		s.prune()
	}
	debugAssertSampled(s)
}

// prune restores Len() <= k by subtracting the (k+1)-th largest count
// from every counter and discarding non-positive ones — the PODS'12
// reduction. It increases dec by the subtracted amount. Survivors are
// compacted in place and re-indexed.
func (s *Summary) prune() {
	m := len(s.items)
	if m <= s.k {
		return
	}
	// The (k+1)-th largest is the (m-k)-th smallest.
	rs := lender.Get()
	rs.keys = append(rs.keys[:0], s.counts...)
	cut := core.SelectKth(rs.keys, m-s.k-1)
	lender.Put(rs)
	s.index.Reset(cap(s.items))
	w := 0
	for i, c := range s.counts {
		if c > cut {
			s.items[w], s.counts[w] = s.items[i], c-cut
			s.index.Insert(s.items[w], int32(w))
			w++
		}
	}
	s.items, s.counts = s.items[:w], s.counts[:w]
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
	out := s.appendCounters(make([]core.Counter, 0, len(s.items)))
	core.SortCountersAsc(out, nil)
	return out
}

// appendCounters appends the monitored (item, count) pairs to dst in
// table order.
func (s *Summary) appendCounters(dst []core.Counter) []core.Counter {
	for i, x := range s.items {
		dst = append(dst, core.Counter{Item: core.Item(x), Count: s.counts[i]})
	}
	return dst
}

// HeavyHitters returns every monitored item whose estimate interval
// can reach threshold, i.e. all candidates with count+dec >= threshold,
// in descending count order. By the MG guarantee this includes every
// item with true frequency >= threshold.
func (s *Summary) HeavyHitters(threshold uint64) []core.Counter {
	var out []core.Counter
	for i, c := range s.counts {
		if c+s.dec >= threshold {
			out = append(out, core.Counter{Item: core.Item(s.items[i]), Count: c})
		}
	}
	core.SortCountersDesc(out)
	return out
}

// Clone returns a deep copy.
func (s *Summary) Clone() *Summary {
	c := newSized(s.k, len(s.items))
	c.n = s.n
	c.dec = s.dec
	for i, x := range s.items {
		c.add(core.Item(x), s.counts[i])
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
