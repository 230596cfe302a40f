package core

import (
	"math/bits"
	"slices"
	"sync"
)

// CollapseRun is the longest stretch of a batch a caller hands one
// Collapse before draining it, which bounds the kernel's scratch (and
// what the pool keeps) whatever the batch length. An edge report of
// 8192 records is one run.
const CollapseRun = 1 << 16

// collapseFib is the 64-bit Fibonacci hashing multiplier, as in the
// counter tables: the high bits of key·collapseFib spread dense, strided
// and already-hashed keys alike over a power-of-two table.
const collapseFib = 0x9E3779B97F4A7C15

// maxPooledSlots caps the table a pooled Collapse may keep: one that
// grew past it (a directory of millions of candidates) is dropped
// rather than pinned in the pool.
const maxPooledSlots = 4 * CollapseRun

var collapsePool = sync.Pool{New: func() any { return new(Collapse) }}

// Collapse is the collapse kernel under the item-keyed batch paths: it
// turns a batch of items into its distinct (item, count) pairs, in order
// of first occurrence. A batch's exact frequency table is itself a
// zero-error summary of the batch, so a summary that folds the pairs in
// as weighted updates pays per distinct key, not per record, and keeps
// its guarantee (PODS'12 §2: merging an exact summary is a merge like any
// other). An edge report of 8192 Zipf records holds about 1,150 keys.
//
// The table is open-addressed (Fibonacci hashing, linear probing, load
// at most 1/2) and lives in pooled scratch: take one with GetCollapse,
// hand it back with PutCollapse, and nothing is allocated after warm-up
// even when every report builds a fresh summary. Not safe for
// concurrent use.
type Collapse struct {
	pairs []Counter
	// table is the active index over pairs; its storage beyond len is
	// all zero, so growing into it needs no clearing.
	table []collapseSlot
	shift uint // 64 − log2(len(table))

	sorted []Counter // Ascending's result
	words  []uint64  // Ascending's sort keys and scratch
}

// collapseSlot indexes one distinct key: pos is 1 + the index of its
// pair, and 0 marks an empty slot.
type collapseSlot struct {
	key uint64
	pos int
}

// GetCollapse returns an empty Collapse from the pool. Pair it with
// PutCollapse once the pairs have been used.
func GetCollapse() *Collapse { return collapsePool.Get().(*Collapse) }

// PutCollapse empties c and returns it to the pool. The caller must not
// touch c, or any slice it returned, afterwards.
func PutCollapse(c *Collapse) {
	if cap(c.table) > maxPooledSlots {
		return
	}
	c.Reset()
	collapsePool.Put(c)
}

// Reset empties c, keeping its storage. The cost is the table the last
// batch needed, not the largest one c ever held.
func (c *Collapse) Reset() {
	clear(c.table)
	c.table = c.table[:0]
	c.pairs = c.pairs[:0]
}

// Pairs returns the distinct items added since the last Reset with their
// summed weights, in order of first occurrence. The slice is c's own:
// valid until the next Add, AddItems, Reset or PutCollapse.
func (c *Collapse) Pairs() []Counter { return c.pairs }

// Add counts w more occurrences of x.
func (c *Collapse) Add(x Item, w uint64) {
	c.reserve(len(c.pairs) + 1)
	if sl := c.slot(uint64(x)); sl.pos == 0 {
		c.pairs = append(c.pairs, Counter{Item: x, Count: w})
		sl.key, sl.pos = uint64(x), len(c.pairs)
	} else {
		c.pairs[sl.pos-1].Count += w
	}
}

// AddItems counts one occurrence of every item in xs: Add(x, 1) for
// each, with the table sized up front for a quarter of xs being new and
// the probe loop on locals.
//
//sketch:hotpath
func (c *Collapse) AddItems(xs []Item) {
	c.reserve(len(c.pairs) + max(1, len(xs)/4))
	table, shift, pairs := c.table, c.shift, c.pairs
	mask := uint64(len(table) - 1)
	for _, x := range xs {
		key := uint64(x)
		i := key * collapseFib >> shift
		for {
			sl := &table[i]
			if sl.pos == 0 {
				if 2*(len(pairs)+1) > len(table) {
					c.pairs = pairs
					c.reserve(len(pairs) + 1)
					table, shift = c.table, c.shift
					mask = uint64(len(table) - 1)
					i = key * collapseFib >> shift
					continue
				}
				pairs = append(pairs, Counter{Item: x, Count: 1})
				sl.key, sl.pos = key, len(pairs)
				break
			}
			if sl.key == key {
				pairs[sl.pos-1].Count++
				break
			}
			i = (i + 1) & mask
		}
	}
	c.pairs = pairs
}

// slot returns key's slot, or the empty slot where it belongs.
func (c *Collapse) slot(key uint64) *collapseSlot {
	mask := uint64(len(c.table) - 1)
	for i := key * collapseFib >> c.shift; ; i = (i + 1) & mask {
		if sl := &c.table[i]; sl.pos == 0 || sl.key == key {
			return sl
		}
	}
}

// reserve sizes the table for n distinct keys at load at most 1/2,
// re-indexing the pairs already held when it has to grow.
func (c *Collapse) reserve(n int) {
	if 2*n <= len(c.table) {
		return
	}
	size := 16
	for size < 2*n {
		size <<= 1
	}
	clear(c.table)
	if cap(c.table) >= size {
		c.table = c.table[:size]
	} else {
		c.table = make([]collapseSlot, size)
	}
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, p := range c.pairs {
		sl := c.slot(uint64(p.Item))
		sl.key, sl.pos = uint64(p.Item), i+1
	}
}

// Ascending returns the pairs ordered by ascending count, ties in order
// of first occurrence, through the stable radix kernel (SortKeys) on
// (count, index) words. Pairs itself is left as it was. The result is
// c's own, valid as long as Pairs'. Counts from 2^(64−b) up, b the bits
// of a pair index (b ≤ 16 within CollapseRun), sort as equals: only
// weighted batches reach them, and for the callers the order is a matter
// of error, never of correctness.
func (c *Collapse) Ascending() []Counter {
	n := len(c.pairs)
	c.sorted = c.sorted[:0]
	if n == 0 {
		return c.sorted
	}
	var top uint64
	for _, p := range c.pairs {
		top = max(top, p.Count)
	}
	lo := uint(bits.Len(uint(n - 1)))
	hi := min(64, lo+uint(bits.Len64(top)))
	limit := uint64(1)<<(hi-lo) - 1
	c.words = slices.Grow(c.words[:0], 2*n)[:2*n]
	keys := c.words[:n]
	for i, p := range c.pairs {
		keys[i] = min(p.Count, limit)<<lo | uint64(i)
	}
	SortKeys(keys, c.words[n:], lo, hi)
	idx := uint64(1)<<lo - 1
	for _, w := range keys {
		c.sorted = append(c.sorted, c.pairs[w&idx])
	}
	return c.sorted
}
