// Package topk pairs a Count-Min sketch with a top-k candidate
// directory, closing the gap that raw linear sketches have no item
// list to report heavy hitters from. The tracker keeps the k items
// with the largest sketch estimates seen so far; because Count-Min
// never underestimates, any item whose true count exceeds the
// directory's minimum estimate is guaranteed to enter the directory
// when it is next updated.
//
// The tracker is mergeable in the framework's sense: sketches add
// cell-wise, and the candidate directories union and re-rank against
// the merged sketch. An item heavy in the union is heavy in at least
// one part (the k-majority pigeonhole of the supplied text's Lemma
// 1.2), so it appears in at least one input directory and survives the
// re-rank.
package topk

import (
	"container/heap"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/countmin"
)

// Tracker is a Count-Min-backed top-k heavy-hitter tracker. The zero
// value is not usable; use New. Not safe for concurrent use.
type Tracker struct {
	k      int
	sketch *countmin.Sketch
	items  map[core.Item]*candidate
	heap   candHeap

	// Retained scratch, so that decoding and merging in a loop stop
	// allocating: candidates a rebuild displaced (reused before a new
	// one is made), the nested sketch frame as UnmarshalBinary copied
	// it out, and the candidate items staged for a rebuild.
	spare []*candidate
	inner []byte
	cands []uint64
}

type candidate struct {
	item  core.Item
	est   uint64
	index int
}

// candHeap is a min-heap on estimates: the root is the weakest
// candidate, first to be displaced.
type candHeap []*candidate

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].est < h[j].est }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *candHeap) Push(x interface{}) { c := x.(*candidate); c.index = len(*h); *h = append(*h, c) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// New returns a tracker keeping the top k items over a Count-Min
// sketch with the given geometry. Trackers merge iff k and the sketch
// geometry/seed match.
func New(k, width, depth int, seed uint64) *Tracker {
	if k < 1 {
		panic("topk: k must be >= 1")
	}
	return &Tracker{
		k:      k,
		sketch: countmin.New(width, depth, seed),
		items:  make(map[core.Item]*candidate, k),
	}
}

// K returns the directory capacity.
func (t *Tracker) K() int { return t.k }

// N returns the total weight observed.
func (t *Tracker) N() uint64 { return t.sketch.N() }

// Update adds w >= 1 occurrences of x and refreshes the directory.
// The sketch update and the directory's estimate refresh share one
// pass over the sketch rows (countmin.UpdateAndEstimate).
func (t *Tracker) Update(x core.Item, w uint64) {
	est := t.sketch.UpdateAndEstimate(x, w)
	t.refresh(x, est)
}

// UpdateBatch adds one occurrence of every item in xs and refreshes
// the directory, identically to calling Update(x, 1) for each x.
//
//sketch:hotpath
func (t *Tracker) UpdateBatch(xs []core.Item) {
	for _, x := range xs {
		t.refresh(x, t.sketch.UpdateAndEstimate(x, 1))
	}
}

// UpdateBatchWeighted adds Count occurrences of every Item in ws, the
// weighted variant of UpdateBatch. All weights must be >= 1.
//
//sketch:hotpath
func (t *Tracker) UpdateBatchWeighted(ws []core.Counter) {
	for _, c := range ws {
		t.refresh(c.Item, t.sketch.UpdateAndEstimate(c.Item, c.Count))
	}
}

// refresh installs x's fresh estimate into the top-k directory.
func (t *Tracker) refresh(x core.Item, est uint64) {
	if c, ok := t.items[x]; ok {
		c.est = est
		heap.Fix(&t.heap, c.index)
		return
	}
	t.offer(x, est)
}

// offer gives x, which is not in the directory, its place there if est
// earns one: a free slot, or the weakest candidate's.
func (t *Tracker) offer(x core.Item, est uint64) {
	if len(t.heap) < t.k {
		var c *candidate
		if n := len(t.spare); n > 0 {
			c, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			c = new(candidate)
		}
		c.item, c.est = x, est
		t.items[x] = c
		heap.Push(&t.heap, c)
		return
	}
	if est > t.heap[0].est {
		weakest := t.heap[0]
		delete(t.items, weakest.item)
		weakest.item = x
		weakest.est = est
		t.items[x] = weakest
		heap.Fix(&t.heap, 0)
	}
}

// Estimate answers a point query via the underlying sketch.
func (t *Tracker) Estimate(x core.Item) core.Estimate { return t.sketch.Estimate(x) }

// Top returns the current directory in descending estimate order.
func (t *Tracker) Top() []core.Counter {
	out := make([]core.Counter, 0, len(t.heap))
	for _, c := range t.heap {
		out = append(out, core.Counter{Item: c.item, Count: c.est})
	}
	core.SortCountersDesc(out)
	return out
}

// HeavyHitters returns directory items whose estimate reaches
// threshold, descending.
func (t *Tracker) HeavyHitters(threshold uint64) []core.Counter {
	var out []core.Counter
	for _, c := range t.heap {
		if c.est >= threshold {
			out = append(out, core.Counter{Item: c.item, Count: c.est})
		}
	}
	core.SortCountersDesc(out)
	return out
}

// Merge folds other into t: sketches add cell-wise, then both
// directories are re-ranked against the merged sketch and the top k
// survive. other is not modified.
func (t *Tracker) Merge(other *Tracker) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if t.k != other.k {
		return core.ErrMismatchedK
	}
	if err := t.sketch.Merge(other.sketch); err != nil {
		return err
	}
	t.cands = other.appendCandidates(t.appendCandidates(t.cands[:0]))
	t.rebuild(t.cands)
	return nil
}

// Merged returns the merge of a and b without modifying either.
func Merged(a, b *Tracker) (*Tracker, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *Tracker) candidateItems() []core.Item {
	out := make([]core.Item, 0, len(t.heap))
	for _, c := range t.heap {
		out = append(out, c.item)
	}
	return out
}

// appendCandidates appends the directory's items, in heap order, to dst.
func (t *Tracker) appendCandidates(dst []uint64) []uint64 {
	for _, c := range t.heap {
		dst = append(dst, uint64(c.item))
	}
	return dst
}

// rebuild replaces the directory with the top k of the given candidate
// items, re-estimated against the current sketch. The candidates it
// displaces are kept for reuse.
func (t *Tracker) rebuild(candidates []uint64) {
	t.spare = append(t.spare, t.heap...)
	clear(t.items)
	t.heap = t.heap[:0]
	for _, raw := range candidates {
		x := core.Item(raw)
		if _, dup := t.items[x]; !dup {
			t.offer(x, t.sketch.Estimate(x).Value)
		}
	}
}

// Clone returns a deep copy.
func (t *Tracker) Clone() *Tracker {
	c := &Tracker{
		k:      t.k,
		sketch: t.sketch.Clone(),
		items:  make(map[core.Item]*candidate, len(t.items)),
	}
	c.rebuild(t.appendCandidates(nil))
	return c
}

// MarshalBinary implements encoding.BinaryMarshaler: the sketch frame
// followed by the directory, wrapped in one outer frame.
func (t *Tracker) MarshalBinary() ([]byte, error) {
	inner, err := t.sketch.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Inner frame bytes cost up to two uvarint bytes each; directory
	// items up to ten. Sized by the candidates held, not by k: a
	// decoded frame may claim any k and hold none.
	w.Grow(3*10 + len(inner)*2 + len(t.heap)*10)
	w.Int(t.k)
	w.Int(len(inner))
	for _, b := range inner {
		w.Uint64(uint64(b))
	}
	items := t.candidateItems()
	w.Int(len(items))
	for _, x := range items {
		w.Uint64(uint64(x))
	}
	return codec.EncodeFrame(codec.KindTopK, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The nested
// sketch frame is copied out into a buffer the receiver keeps — one
// small-uvarint run: every element must be a byte, a larger value is
// an error, not its low eight bits — and decoded into the receiver's
// own sketch; the candidates are staged in retained scratch and the
// directory rebuilt from recycled entries. A reused receiver (any k,
// any sketch geometry, any contents; the zero value too) allocates
// nothing. A frame rejected before the nested sketch is decoded leaves
// the receiver untouched; one whose nested frame is rejected leaves it
// empty.
func (t *Tracker) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindTopK, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	k := r.Int()
	il := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	if k < 1 {
		return fmt.Errorf("topk: implausible frame header (k=%d)", k)
	}
	t.inner = codec.Resize(t.inner, il)
	r.Uint8s(t.inner, 255)
	m := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	t.cands = codec.Resize(t.cands, m)
	r.Uint64s(t.cands)
	if err := r.Finish(); err != nil {
		return err
	}
	if m > k {
		return fmt.Errorf("topk: %d candidates exceed k=%d", m, k)
	}
	if t.sketch == nil {
		t.sketch = new(countmin.Sketch)
		t.items = make(map[core.Item]*candidate, m)
	}
	if err := t.sketch.UnmarshalBinary(t.inner); err != nil {
		t.sketch.Reset()
		t.rebuild(nil)
		return err
	}
	t.k = k
	t.rebuild(t.cands)
	return nil
}

var _ core.FrequencySummary = (*Tracker)(nil)
