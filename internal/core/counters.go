package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// SortCountersAsc sorts counters in ascending order of count, breaking
// ties by item so the order is deterministic. This is the canonical
// order used by the merge algorithms, which index the combined summary
// "in ascending sorted order" (PODS'12 §2; supplied-text Algorithms 1-3).
//
// scratch is the sort's working memory, 2·len(cs) words; a shorter one
// (nil too) is replaced by a buffer on the stack, which holds 128
// counters, or past that by a fresh one. Records move once, by CountOrder
// and Permute, and an insertion pass orders what the packed keys tie.
//
//sketch:hotpath
func SortCountersAsc(cs []Counter, scratch []uint64) {
	n := len(cs)
	if len(scratch) < 2*n {
		var buf [256]uint64
		scratch = slices.Grow(buf[:0], 2*n)[:2*n]
	}
	keys := scratch[:n]
	for i, c := range cs {
		keys[i] = c.Count
	}
	CountOrder(keys, scratch[n:2*n])
	Permute(cs, keys)
	for i := 1; i < n; i++ {
		x := cs[i]
		j := i
		for ; j > 0 && (cs[j-1].Count > x.Count || cs[j-1].Count == x.Count && cs[j-1].Item > x.Item); j-- {
			cs[j] = cs[j-1]
		}
		cs[j] = x
	}
}

// CountOrder sorts n records by count through SortKeys. keys holds the
// records' counts on entry and their order on return: keys[i] is the
// index of the record that goes i-th. Each count shares a word with its
// index, b = bits.Len(n−1) bits wide, so counts wider than 64−b bits
// lose their low bits; records whose counts then tie keep their index
// order, and the caller settles them (and equal counts) by its full
// order in one insertion pass, which costs a pass when nothing ties.
// scratch must hold len(keys) words.
//
//sketch:hotpath
func CountOrder(keys, scratch []uint64) {
	n := len(keys)
	if n == 0 {
		return
	}
	b := uint(bits.Len(uint(n - 1)))
	var top uint64
	for _, c := range keys {
		top = max(top, c)
	}
	s := uint(max(bits.Len64(top)+int(b)-64, 0))
	for i, c := range keys {
		keys[i] = c>>s<<b | uint64(i)
	}
	SortKeys(keys, scratch, b, b+uint(max(bits.Len64(top>>s), 1)))
	for i := range keys {
		keys[i] &= 1<<b - 1
	}
}

// Permute puts xs in the order CountOrder returned: xs[order[i]] goes
// to position i. It follows each cycle of the permutation once, marking
// the positions it fills in order, so records move in place.
//
//sketch:hotpath
func Permute[T any](xs []T, order []uint64) {
	for i := range order {
		if order[i] == uint64(i) {
			continue
		}
		x := xs[i]
		j := i
		for {
			k := int(order[j])
			order[j] = uint64(j)
			if k == i {
				xs[j] = x
				break
			}
			xs[j] = xs[k]
			j = k
		}
	}
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
