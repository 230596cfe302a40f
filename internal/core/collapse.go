package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// CollapseRun is the longest stretch of a batch a caller hands one
// Collapse before draining it, which bounds the kernel's scratch (and
// what the pool keeps) whatever the batch length. An edge report of
// 8192 records is one run.
const CollapseRun = 1 << 16

// maxPooledSlots caps the table a pooled Collapse may keep: one that
// grew past it (a directory of millions of candidates) is dropped
// rather than pinned in the pool.
const maxPooledSlots = 4 * CollapseRun

var collapsePool Pool[Collapse]

// Pool lends scratch of type T for the length of one call: a summary
// keeps only its state, and every call takes the runs it sorts, merges
// or compresses in from Get and hands them back with Put before it
// returns, so a warm path allocates nothing and a summary that is built,
// encoded and dropped allocates only what it kept. It pools pointers
// (a slice boxed into an interface would allocate on every Put).
//
// The first shelfLen values handed back wait on a shelf that every P
// reads and no GC cycle empties, so a warm path stays at zero
// allocations whichever P the next call runs on and however long it
// waits. Values beyond those overflow into a sync.Pool, which keeps them per P
// and drops them after two idle GC cycles. What a Pool holds is
// therefore shelfLen values for good, plus what the GC has not yet
// drained; callers cap what one value may keep. The zero value is ready
// to use; safe for concurrent use.
type Pool[T any] struct {
	shelf [shelfLen]atomic.Pointer[T]
	p     sync.Pool
}

// shelfLen is how many lent values a Pool keeps on its shelf: enough
// for the calls a small machine runs at once.
const shelfLen = 4

// Get returns a T from the pool, or a new zero T when it is empty. The
// contents are whatever the last borrower left: the caller resets what
// it reads.
func (p *Pool[T]) Get() *T {
	for i := range p.shelf {
		if p.shelf[i].Load() != nil {
			if v := p.shelf[i].Swap(nil); v != nil {
				return v
			}
		}
	}
	if v, ok := p.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// Put returns v to the pool. The caller must not touch v, or any
// storage it handed over in v, afterwards.
func (p *Pool[T]) Put(v *T) {
	for i := range p.shelf {
		if p.shelf[i].CompareAndSwap(nil, v) {
			return
		}
	}
	p.p.Put(v)
}

// Collapse is the collapse kernel under the item-keyed batch paths: it
// turns a batch of items into its distinct (item, count) pairs, in order
// of first occurrence. A batch's exact frequency table is itself a
// zero-error summary of the batch, so a summary that folds the pairs in
// as weighted updates pays per distinct key, not per record, and keeps
// its guarantee (PODS'12 §2: merging an exact summary is a merge like any
// other). An edge report of 8192 Zipf records holds about 1,150 keys.
//
// The pairs are found through an Index, and both live in pooled
// scratch: take one with GetCollapse, hand it back with PutCollapse,
// and nothing is allocated after warm-up even when every report builds
// a fresh summary. Not safe for concurrent use.
type Collapse struct {
	pairs []Counter
	index Index // item → position in pairs

	sorted []Counter // Ascending's result
	words  []uint64  // Ascending's sort keys and scratch
}

// GetCollapse returns an empty Collapse from the pool. Pair it with
// PutCollapse once the pairs have been used.
func GetCollapse() *Collapse { return collapsePool.Get() }

// PutCollapse empties c and returns it to the pool. The caller must not
// touch c, or any slice it returned, afterwards.
func PutCollapse(c *Collapse) {
	if c.index.Cap() > maxPooledSlots {
		return
	}
	c.Reset()
	collapsePool.Put(c)
}

// Reset empties c, keeping its storage. The cost is the table the last
// batch needed, not the largest one c ever held.
func (c *Collapse) Reset() {
	c.index.Reset(0)
	c.pairs = c.pairs[:0]
}

// Pairs returns the distinct items added since the last Reset with their
// summed weights, in order of first occurrence. The slice is c's own:
// valid until the next Add, AddItems, Reset or PutCollapse.
func (c *Collapse) Pairs() []Counter { return c.pairs }

// Add counts w more occurrences of x.
func (c *Collapse) Add(x Item, w uint64) {
	if p := c.index.Find(uint64(x)); p >= 0 {
		c.pairs[p].Count += w
		return
	}
	c.index.Insert(uint64(x), int32(len(c.pairs)))
	c.pairs = append(c.pairs, Counter{Item: x, Count: w})
}

// AddItems counts one occurrence of every item in xs: Add(x, 1) for
// each, with one probe per item, on locals written back at the end. The
// index is sized up front for a quarter of the items being new, and an
// item adds at most one key, so a run of items no longer than the
// index's room needs no growth check.
func (c *Collapse) AddItems(xs []Item) {
	pairs, index := c.pairs, c.index
	for len(xs) > 0 {
		index.Reserve(len(pairs) + max(1, len(xs)/4))
		run := xs[:min(len(xs), index.Room())]
		xs = xs[len(run):]
		for _, x := range run {
			i, p := index.Slot(uint64(x))
			if p >= 0 {
				pairs[p].Count++
				continue
			}
			index.Put(i, uint64(x), int32(len(pairs)))
			pairs = append(pairs, Counter{Item: x, Count: 1})
		}
	}
	c.pairs, c.index = pairs, index
}

// Ascending returns the pairs ordered by ascending count, ties in order
// of first occurrence, through the stable radix kernel (SortKeys) on
// (count, index) words. Pairs itself is left as it was. The result is
// c's own, valid as long as Pairs'. Counts from 2^(64−b) up, b the bits
// of a pair index (b ≤ 16 within CollapseRun), sort as equals. No
// caller comes near them (each adds one per item, so a count is at most
// the run's length), and for the callers the order is a matter of
// error, never of correctness.
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
