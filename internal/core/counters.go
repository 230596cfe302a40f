package core

import (
	"cmp"
	"slices"
)

// SortCountersAsc sorts counters in ascending order of count, breaking
// ties by item so the order is deterministic. This is the canonical
// order used by the merge algorithms, which index the combined summary
// "in ascending sorted order" (PODS'12 §2; supplied-text Algorithms 1-3).
func SortCountersAsc(cs []Counter) {
	slices.SortFunc(cs, func(a, b Counter) int {
		if c := cmp.Compare(a.Count, b.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Item, b.Item)
	})
}

// SortCountersDesc sorts counters in descending order of count with the
// same deterministic tie-break, the order reports are printed in.
func SortCountersDesc(cs []Counter) {
	slices.SortFunc(cs, func(a, b Counter) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Item, b.Item)
	})
}

// TotalCount sums the counts of all counters.
func TotalCount(cs []Counter) uint64 {
	var n uint64
	for _, c := range cs {
		n += c.Count
	}
	return n
}

// TopCounters returns the k counters with the largest counts, in
// descending order. It copies its input and never returns more than
// len(cs) counters.
func TopCounters(cs []Counter, k int) []Counter {
	out := make([]Counter, len(cs))
	copy(out, cs)
	SortCountersDesc(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}
