package spacesaving

import (
	"sync"

	"repro/internal/core"
	"repro/internal/mg"
)

// subtractMin applies the isomorphism pre-step: if the summary is full
// (all k counters in use) its minimum count is subtracted from every
// counter and zeroed counters are dropped, leaving at most k−1
// counters. The subtracted amount is returned; it becomes part of the
// merged summary's undercount bound. Summaries that are not full are
// left untouched (their counts are exact upper bounds already).
func subtractMin(states []CounterState, k int) ([]CounterState, uint64) {
	if len(states) < k || len(states) == 0 {
		return states, 0
	}
	mu := states[0].Count // states are sorted ascending
	out := states[:0]
	for _, st := range states {
		if st.Count > mu {
			st.Count -= mu
			out = append(out, st)
		}
	}
	return out, mu
}

// combinePool recycles the pointwise-sum accumulator map across
// merges, so the merge plane does not allocate a fresh map of size
// len(a)+len(b) on every fold.
var combinePool = sync.Pool{
	New: func() any {
		m := make(map[core.Item]CounterState, 64)
		return &m
	},
}

// getCombineMap borrows an empty accumulator map from combinePool;
// release clears it and returns it.
func getCombineMap() (m map[core.Item]CounterState, release func()) {
	mp := combinePool.Get().(*map[core.Item]CounterState)
	return *mp, func() {
		clear(*mp)
		combinePool.Put(mp)
	}
}

// combineStates sums two state lists pointwise (shared items add both
// counts and both certificates) and returns the result, sorted
// ascending, appended to dst[:0] — which may share storage with a or
// b: both are consumed before it is written. Accumulation runs in a
// pooled map.
func combineStates(a, b, dst []CounterState) []CounterState {
	m, release := getCombineMap()
	defer release()
	for _, st := range a {
		m[st.Item] = st
	}
	for _, st := range b {
		if prev, ok := m[st.Item]; ok {
			prev.Count += st.Count
			prev.Eps += st.Eps
			m[st.Item] = prev
		} else {
			m[st.Item] = st
		}
	}
	out := dst[:0]
	for _, st := range m {
		out = append(out, st)
	}
	sortStates(out)
	return out
}

// combineWith is the shared front half of both merges: both operands'
// states after the minima-subtraction pre-step, summed pointwise and
// sorted ascending, in s's own scratch (valid until the next merge or
// decode), with n and under brought up to date.
func (s *Summary) combineWith(other *Summary) []CounterState {
	sa, mua := subtractMin(s.appendStates(s.stage[:0]), s.k)
	sb, mub := subtractMin(other.appendStates(s.stage2[:0]), other.k)
	s.stage2 = sb[:0]
	combined := combineStates(sa, sb, sa)
	s.stage = combined[:0]
	s.n += other.n
	s.under += other.under + mua + mub
	return combined
}

// Merge folds other into s using the PODS'12 algorithm: both summaries
// are reduced to Misra–Gries form by subtracting their minimum counter
// (the SS↔MG isomorphism, Agarwal et al. §2), the counters are added
// pointwise, and if more than k−1 remain the (k)-th largest count is
// subtracted from all (the MG prune with capacity k−1). The result has
// at most k−1 counters and satisfies f(x) ∈ [Value−eps, Value+under]
// with under ≤ (n1+n2)·2/k in the worst case and ≤ ε(n1+n2) in the
// paper's accounting (minima subtraction is shared by all algorithms).
//
// other is not modified.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	combined := s.combineWith(other)

	c := s.k - 1 // MG capacity after the isomorphism
	if len(combined) > c && c > 0 {
		// Subtract the (c+1)-th largest = (len-c)-th smallest.
		cut := combined[len(combined)-c-1].Count
		pruned := combined[:0]
		for _, st := range combined {
			if st.Count > cut {
				st.Count -= cut
				pruned = append(pruned, st)
			}
		}
		combined = pruned
		s.under += cut
	} else if c == 0 {
		combined = combined[:0]
	}
	s.rebuild(combined)
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

// MergeLowError folds other into s using Algorithm 3 of the supplied
// follow-up text (Cafaro–Tempesta–Pulimeno; their Theorem 4.5 evaluated
// at the final update step). After the same minima-subtraction pre-step
// as Merge, the combined counters C_1 … C_{2k−2} (ascending, front-
// padded with zeros) are turned into the exact summary a SpaceSaving
// run over them would produce:
//
//	e_j = C_{k−2+j}                    j = 1 … k
//	f_j = C_{k−2+j}                    j = 1, 2
//	f_j = C_{k−2+j} + C_{j−2}          j = 3 … k
//
// The result keeps k counters (one more than Merge) and its total
// error Σ C_{j}, j ≤ k−2, is strictly below the PODS'12 prune's
// (k−1)·C_{k−1} (the text's Lemma 4.6).
func (s *Summary) MergeLowError(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	k := s.k
	combined := s.combineWith(other)

	if len(combined) < k {
		s.rebuild(combined)
		debugAssert(s)
		return nil
	}
	// cntAt(i) is the 1-based C_i accessor over the combined counters
	// padded at the front with zero counters to exactly 2k−2 slots.
	pad := 2*k - 2 - len(combined)
	cntAt := func(i int) CounterState {
		if i <= pad {
			return CounterState{}
		}
		return combined[i-1-pad]
	}

	out := s.stage2[:0] // other's states are spent
	for j := 1; j <= k; j++ {
		st := cntAt(k - 2 + j)
		if j >= 3 {
			add := cntAt(j - 2).Count
			st.Count += add
			st.Eps += add // the added occurrences are spurious for st.Item
		}
		if st.Count > 0 {
			out = append(out, st)
		}
	}
	s.stage2 = out[:0]
	sortStates(out)
	s.rebuild(out)
	debugAssert(s)
	return nil
}

// MergedLowError returns the low-total-error merge of a and b without
// modifying either.
func MergedLowError(a, b *Summary) (*Summary, error) {
	out := a.Clone()
	if err := out.MergeLowError(b); err != nil {
		return nil, err
	}
	return out, nil
}

// CombinedCounters returns the pointwise sum of the two summaries'
// counters *after* the minima-subtraction pre-step, in ascending order:
// the multiset S both merge algorithms build, and the reference the
// total-error metric is measured against (§5 of the supplied text).
func CombinedCounters(a, b *Summary) []core.Counter {
	sa, _ := subtractMin(a.States(), a.k)
	sb, _ := subtractMin(b.States(), b.k)
	combined := combineStates(sa, sb, nil)
	out := make([]core.Counter, len(combined))
	for i, st := range combined {
		out[i] = core.Counter{Item: st.Item, Count: st.Count}
	}
	return out
}

// TotalMergeError measures the total error a merge committed relative
// to the combined summary: Σ over the merged summary's monitored items
// of |merged(x) − combined(x)|. SpaceSaving merges overestimate
// relative to the combined counters, so this is Σ merged(x) −
// combined(x) for the low-error merge; the PODS'12 merge underestimates
// and contributes combined(x) − merged(x). Matches the E_T metric of
// the supplied text's §5.2 (which neglects the shared minima terms).
func TotalMergeError(combined []core.Counter, merged *Summary) uint64 {
	byItem := make(map[core.Item]uint64, len(combined))
	for _, c := range combined {
		byItem[c.Item] = c.Count
	}
	var te uint64
	for _, c := range merged.Counters() {
		cv := byItem[c.Item]
		if c.Count >= cv {
			te += c.Count - cv
		} else {
			te += cv - c.Count
		}
	}
	return te
}

// ToMisraGries converts the summary to its isomorphic Misra–Gries form
// (Agarwal et al. §2): the minimum counter value is subtracted from all
// counters of a full summary, producing an MG summary with k−1
// counters over the same stream. The conversion preserves N and folds
// the subtracted minimum into the MG undercount certificate.
func (s *Summary) ToMisraGries() *mg.Summary {
	states, mu := subtractMin(s.States(), s.k)
	c := s.k - 1
	if c < 1 {
		c = 1
	}
	cs := make([]core.Counter, len(states))
	for i, st := range states {
		cs[i] = core.Counter{Item: st.Item, Count: st.Count}
	}
	out, err := mg.FromCounters(c, s.n, s.under+mu, cs)
	if err != nil {
		// Cannot happen: subtractMin leaves at most k-1 distinct,
		// positive counters.
		panic("spacesaving: isomorphism produced invalid MG summary: " + err.Error())
	}
	return out
}
