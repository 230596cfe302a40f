package mg

import "repro/internal/core"

// Merge folds other into s using the PODS'12 algorithm (Agarwal et al.,
// §2): counters are added pointwise, and if more than k counters remain
// the (k+1)-th largest count is subtracted from all of them, keeping
// only the strictly positive ones. The error bound of the result is at
// most (s.n + other.n)/(k+1) — the same ε as the inputs (Theorem 2.2).
//
// other is not modified. Merging summaries with different k fails.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	s.ensure(len(s.items) + len(other.items))
	for i, x := range other.items {
		s.add(core.Item(x), other.counts[i])
	}
	s.n += other.n
	s.dec += other.dec
	s.prune()
	debugAssert(s)
	return nil
}

// CombinedCounters returns the exact pointwise sum of the two
// summaries' counters in ascending order — the intermediate multiset S
// both merge algorithms start from. Exposed for the total-error
// experiments, which compare each merge's output against it. The sums
// accumulate in a table of their own, sized for both summaries.
func CombinedCounters(a, b *Summary) []core.Counter {
	acc := newSized(1, len(a.items)+len(b.items)) // never pruned: k is irrelevant
	for _, s := range []*Summary{a, b} {
		for i, x := range s.items {
			acc.add(core.Item(x), s.counts[i])
		}
	}
	return acc.Counters()
}

// TotalMergeError measures the total error a merge committed relative
// to the combined (pre-prune) summary: the sum over the merged
// summary's monitored items of combined(x) − merged(x). This is the
// E_T metric of the supplied follow-up text (its §5 examples), which
// both its algorithms and the PODS'12 algorithm are scored by.
func TotalMergeError(combined []core.Counter, merged *Summary) uint64 {
	var te uint64
	for _, c := range combined {
		if got := merged.get(c.Item); got != 0 {
			if got > c.Count {
				// A merge must never raise a count above the combined
				// value; flag it loudly in experiments.
				panic("mg: merged count exceeds combined count")
			}
			te += c.Count - got
		}
	}
	return te
}
