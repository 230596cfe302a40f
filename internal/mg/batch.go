package mg

import "repro/internal/core"

// pruneSlack is the extra headroom the batch path allows the counter
// table before pruning: prune triggers at live > k+pruneSlack(k)
// instead of live > k. Deferred pruning is guarantee-preserving — every
// prune with m counters subtracts the (m−k)-th smallest count `cut`
// from the k surviving counters and deletes at least one counter worth
// `cut`, removing ≥ cut·(k+1) total mass per cut of dec, so dec ≤
// n/(k+1) still holds (the PODS'12 argument, which never uses m = k+1).
// The payoff is amortization: the per-item path pays an O(k log k)
// prune for every miss once the table is full; the batch path pays one
// prune per k misses.
func pruneSlack(k int) int {
	// Match the merge algorithm's transient footprint: at most 2k live
	// counters, pruned back to k.
	return k
}

// UpdateBatch adds one occurrence of every item in xs. It is
// guarantee-equivalent to calling Update(x, 1) for each x: same n, at
// most k counters afterwards, no overestimation, and undercount at
// most ErrorBound() ≤ n/(k+1). The summary state may differ from the
// per-item loop's because pruning is deferred across the batch (see
// pruneSlack).
func (s *Summary) UpdateBatch(xs []core.Item) {
	if len(xs) == 0 {
		return
	}
	limit := s.k + pruneSlack(s.k)
	s.ensure(limit + 1)
	for _, x := range xs {
		s.bump(uint64(x), 1)
		if len(s.items) > limit {
			s.prune()
		}
	}
	s.n += uint64(len(xs))
	if len(s.items) > s.k {
		s.prune()
	}
	debugAssert(s)
}
