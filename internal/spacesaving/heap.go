package spacesaving

import (
	"container/heap"

	"repro/internal/core"
)

// HeapSummary is the ablation variant of SpaceSaving: the same
// algorithm backed by a binary min-heap keyed by count instead of the
// stream-summary bucket list. Updates cost O(log k) instead of O(1);
// the estimates carry identical guarantees. It exists so the benchmark
// suite can quantify what the stream-summary structure buys
// (BenchmarkSpaceSavingHeapUpdate vs BenchmarkSpaceSavingUpdate).
type HeapSummary struct {
	k       int
	n       uint64
	entries map[core.Item]*heapEntry
	heap    entryHeap
}

type heapEntry struct {
	item  core.Item
	count uint64
	eps   uint64
	index int // position in the heap
	seq   uint64
}

// entryHeap is a min-heap on (count, seq): seq breaks count ties FIFO
// so eviction matches the bucket implementation's oldest-first policy.
type entryHeap []*heapEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x interface{}) {
	e := x.(*heapEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewHeap returns an empty heap-backed SpaceSaving summary with k
// counters.
func NewHeap(k int) *HeapSummary {
	if k < 1 {
		panic("spacesaving: k must be >= 1")
	}
	return &HeapSummary{k: k, entries: make(map[core.Item]*heapEntry, k)}
}

// K returns the counter capacity.
func (s *HeapSummary) K() int { return s.k }

// N returns the total weight summarized.
func (s *HeapSummary) N() uint64 { return s.n }

// Len returns the number of monitored items.
func (s *HeapSummary) Len() int { return len(s.entries) }

// MinCount returns the smallest monitored count (0 when empty).
func (s *HeapSummary) MinCount() uint64 {
	if len(s.heap) == 0 {
		return 0
	}
	return s.heap[0].count
}

// Update adds w >= 1 occurrences of x in O(log k).
func (s *HeapSummary) Update(x core.Item, w uint64) {
	if w == 0 {
		panic("spacesaving: zero-weight update")
	}
	s.n += w
	if e, ok := s.entries[x]; ok {
		e.count += w
		heap.Fix(&s.heap, e.index)
		return
	}
	if len(s.entries) < s.k {
		e := &heapEntry{item: x, count: w, seq: s.n}
		s.entries[x] = e
		heap.Push(&s.heap, e)
		return
	}
	victim := s.heap[0]
	delete(s.entries, victim.item)
	minCount := victim.count
	victim.item = x
	victim.eps = minCount
	victim.count = minCount + w
	victim.seq = s.n
	s.entries[x] = victim
	heap.Fix(&s.heap, 0)
}

// Estimate answers a point query with the SpaceSaving guarantee.
func (s *HeapSummary) Estimate(x core.Item) core.Estimate {
	if e, ok := s.entries[x]; ok {
		lo := uint64(0)
		if e.count > e.eps {
			lo = e.count - e.eps
		}
		return core.Estimate{Value: e.count, Lower: lo, Upper: e.count}
	}
	return core.Estimate{Value: 0, Lower: 0, Upper: s.MinCount()}
}

// Counters returns the monitored (item, count) pairs ascending.
func (s *HeapSummary) Counters() []core.Counter {
	out := make([]core.Counter, 0, len(s.entries))
	for _, e := range s.heap {
		out = append(out, core.Counter{Item: e.item, Count: e.count})
	}
	core.SortCountersAsc(out, nil)
	return out
}

// ToBuckets converts to the canonical stream-summary representation so
// the heap variant can participate in merges.
func (s *HeapSummary) ToBuckets() *Summary {
	states := make([]CounterState, 0, len(s.entries))
	for _, e := range s.heap {
		states = append(states, CounterState{Item: e.item, Count: e.count, Eps: e.eps})
	}
	out, err := FromStates(s.k, s.n, 0, states)
	if err != nil {
		panic("spacesaving: heap state invalid: " + err.Error())
	}
	return out
}

var _ core.CounterSummary = (*HeapSummary)(nil)
