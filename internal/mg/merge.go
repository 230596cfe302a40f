package mg

import (
	"repro/internal/core"
	"repro/internal/registry"
)

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

// Merged returns the PODS'12 merge of a and b without modifying either.
func Merged(a, b *Summary) (*Summary, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// combineAccumulator borrows a summary to accumulate pointwise counter
// sums into, drawn from the family's registry scratch pool (the same
// sync.Pool the server's decode path recycles summaries through) so
// repeated merge experiments do not allocate a fresh table each time.
// release returns it to the pool.
func combineAccumulator(occ int) (acc *Summary, release func()) {
	if ent, ok := registry.ByName("mg"); ok {
		if pooled, ok := ent.GetScratch().(*Summary); ok {
			pooled.k = 1 // accumulator never prunes; k is irrelevant
			pooled.Reset()
			pooled.ensure(occ)
			return pooled, func() { ent.PutScratch(pooled) }
		}
	}
	return newSized(1, occ), func() {}
}

// CombinedCounters returns the exact pointwise sum of the two
// summaries' counters in ascending order — the intermediate multiset S
// both merge algorithms start from. Exposed for the total-error
// experiments, which compare each merge's output against it. The
// accumulation runs in a pooled scratch table; only the returned slice
// is allocated.
func CombinedCounters(a, b *Summary) []core.Counter {
	acc, release := combineAccumulator(len(a.items) + len(b.items))
	defer release()
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

// DroppedMergeError complements TotalMergeError: the combined weight of
// items the merge dropped entirely.
func DroppedMergeError(combined []core.Counter, merged *Summary) uint64 {
	var te uint64
	for _, c := range combined {
		if merged.get(c.Item) == 0 {
			te += c.Count
		}
	}
	return te
}
