package mg

import (
	"repro/internal/core"
)

// MergeMany combines any number of summaries in a single step: all
// counters are added pointwise and exactly one prune runs at the end.
// The result satisfies the same bound as pairwise merging — the prune
// argument charges every subtracted unit to k+1 removed occurrences,
// independent of how many summaries were combined — but the *total*
// error is usually lower than a pairwise chain's because intermediate
// prunes never happen. Experiment E04 quantifies the gap.
//
// All summaries must share k. The inputs are not modified.
func MergeMany(summaries []*Summary) (*Summary, error) {
	if len(summaries) == 0 {
		return nil, core.ErrNilSummary
	}
	k := summaries[0].k
	total := 0
	for _, s := range summaries {
		if s == nil {
			return nil, core.ErrNilSummary
		}
		if s.k != k {
			return nil, core.ErrMismatchedK
		}
		total += len(s.items)
	}
	// Size the accumulator table once for the full transient footprint
	// (up to Σ live counters stay live until the single final prune).
	out := newSized(k, total)
	for _, s := range summaries {
		for i, x := range s.items {
			out.add(core.Item(x), s.counts[i])
		}
		out.n += s.n
		out.dec += s.dec
	}
	out.prune()
	return out, nil
}
