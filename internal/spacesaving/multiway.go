package spacesaving

import (
	"repro/internal/core"
)

// MergeMany combines any number of summaries in a single step: every
// full input has its minimum subtracted (the isomorphism pre-step),
// all counters are added pointwise, and exactly one prune runs at the
// end. Like mg.MergeMany it satisfies the pairwise bound with lower
// total error than a chain of two-way merges, because intermediate
// prunes never happen.
//
// All summaries must share k. The inputs are not modified.
func MergeMany(summaries []*Summary) (*Summary, error) {
	if len(summaries) == 0 {
		return nil, core.ErrNilSummary
	}
	k := summaries[0].k
	out := New(k)
	var idx core.Index
	var states []CounterState
	for _, s := range summaries {
		if s == nil {
			return nil, core.ErrNilSummary
		}
		if s.k != k {
			return nil, core.ErrMismatchedK
		}
		sub, mu := subtractMin(s.States(), s.k)
		out.n += s.n
		out.under += s.under + mu
		idx.Reserve(len(states) + len(sub))
		states = addStates(&idx, states, sub)
	}
	sortStates(states)

	c := k - 1 // MG capacity after the isomorphism
	if len(states) > c && c > 0 {
		cut := states[len(states)-c-1].Count
		pruned := states[:0]
		for _, st := range states {
			if st.Count > cut {
				st.Count -= cut
				pruned = append(pruned, st)
			}
		}
		states = pruned
		out.under += cut
	} else if c == 0 {
		states = states[:0]
	}
	out.rebuild(states)
	return out, nil
}
