package mg

import (
	"slices"

	"repro/internal/core"
)

// MergeLowError folds other into s using the closed-form low-total-
// error algorithm (Algorithm 2 of the supplied follow-up text,
// "Mergeable Summaries With Low Total Error", Cafaro–Tempesta–Pulimeno;
// their Theorem 4.2 evaluated at the final update step).
//
// The construction: let C_1 … C_2c be the combined counters of the two
// inputs in ascending count order, padded at the front with zero
// counters, where c is the per-summary capacity (the text's k-1). If at
// most c counters are nonzero the combined summary is returned exactly.
// Otherwise the result is the summary a Misra–Gries run over the
// combined counters would produce, given directly by
//
//	e_j = C_{c+j}                       j = 1 … c
//	f_1 = C_{c+1} − C_c
//	f_j = C_{c+j} − C_c + C_{j−1}       j = 2 … c
//
// This output satisfies the identical MG bound as Merge (total weight
// divided by c+1 — the text's Lemma 4.3 shows its total error is never
// larger than the PODS'12 prune, and usually much smaller), at the same
// O(c) cost.
func (s *Summary) MergeLowError(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	c := s.k
	// Sum pointwise in s's own table, then read the combined counters
	// out, ascending, into borrowed runs: a merge in a loop allocates
	// nothing.
	s.ensure(len(s.items) + len(other.items))
	for i, x := range other.items {
		s.add(core.Item(x), other.counts[i])
	}
	rs := lender.Get()
	defer lender.Put(rs)
	combined := s.appendCounters(rs.cs[:0])
	rs.keys = slices.Grow(rs.keys[:0], 2*len(combined))[:2*len(combined)]
	core.SortCountersAsc(combined, rs.keys)
	rs.cs = combined
	s.n += other.n
	s.dec += other.dec
	if len(combined) <= c {
		// No pruning necessary: the combined summary is exact
		// relative to its inputs, and s already holds it.
		debugAssert(s)
		return nil
	}
	// at(i) is the 1-based C_i accessor over the combined counters
	// padded at the front with zero counters to exactly 2c slots.
	pad := 2*c - len(combined)
	at := func(i int) core.Counter {
		if i <= pad {
			return core.Counter{}
		}
		return combined[i-1-pad]
	}
	s.clearTable()
	base := at(c).Count // C_c, the amount every surviving counter is cut by
	for j := 1; j <= c; j++ {
		f := at(c+j).Count - base
		if j > 1 {
			f += at(j - 1).Count
		}
		if f > 0 {
			s.add(at(c+j).Item, f)
		}
	}
	// Every output counter was reduced by at most C_c relative to the
	// combined counts (j=1 loses C_c; j>=2 loses C_c − C_{j−1} ≤ C_c),
	// and every dropped item had combined count ≤ C_c.
	s.dec += base
	debugAssert(s)
	return nil
}
