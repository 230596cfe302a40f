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
	// The directory: a min-heap on estimates over two parallel arrays —
	// the root is the weakest candidate, first to be displaced — laid
	// out exactly as container/heap would lay it out, so frames list
	// their candidates in the order they always did.
	items []core.Item
	ests  []uint64

	// Retained scratch, so that decoding in a loop stops allocating: the
	// nested sketch frame as UnmarshalBinary copied it out, and the
	// candidate items staged for a rebuild.
	inner []byte
	cands []uint64
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
		items:  make([]core.Item, 0, k),
		ests:   make([]uint64, 0, k),
	}
}

// K returns the directory capacity.
func (t *Tracker) K() int { return t.k }

// N returns the total weight observed.
func (t *Tracker) N() uint64 { return t.sketch.N() }

// Update adds w >= 1 occurrences of x and refreshes x's place in the
// directory. The sketch update and the estimate share one pass over the
// sketch rows (countmin.UpdateAndEstimate); finding x in the directory
// is a scan of its at most k items.
func (t *Tracker) Update(x core.Item, w uint64) {
	est := t.sketch.UpdateAndEstimate(x, w)
	for i, y := range t.items {
		if y == x {
			t.ests[i] = est
			t.fix(i)
			return
		}
	}
	t.offer(x, est)
}

// UpdateBatch adds one occurrence of every item in xs. The sketch is
// updated by countmin.UpdateBatch — linear, so its cells are exactly
// the Update loop's — and the directory is then re-ranked against the
// final sketch over the old directory plus the batch's distinct items
// (core.Collapse), which is the rule Merge uses: the top k of those
// candidates by final estimate survive. That is guarantee-equivalent to
// the loop, not state-identical: the loop ranks each item by its
// estimate at the moment it arrived. A batch pays per distinct key for
// its directory, not per record.
//
//sketch:hotpath
func (t *Tracker) UpdateBatch(xs []core.Item) {
	t.sketch.UpdateBatch(xs)
	for len(xs) > 0 {
		run := xs[:min(len(xs), core.CollapseRun)]
		xs = xs[len(run):]
		t.rerank(t.items, run)
	}
}

// UpdateBatchWeighted adds Count occurrences of every Item in ws, the
// weighted variant of UpdateBatch, under the same contract. All weights
// must be >= 1; a zero weight panics before anything is added.
//
//sketch:hotpath
func (t *Tracker) UpdateBatchWeighted(ws []core.Counter) {
	for _, c := range ws {
		if c.Count == 0 {
			panic("topk: zero-weight update")
		}
	}
	t.sketch.UpdateBatchWeighted(ws)
	c := core.GetCollapse()
	for len(ws) > 0 {
		run := ws[:min(len(ws), core.CollapseRun)]
		ws = ws[len(run):]
		c.AddItems(t.items)
		for _, w := range run {
			c.Add(w.Item, 1) // only the distinct items matter here
		}
		t.rebuild(c)
	}
	core.PutCollapse(c)
}

// rerank rebuilds the directory from the distinct items of a, then b.
func (t *Tracker) rerank(a, b []core.Item) {
	c := core.GetCollapse()
	c.AddItems(a)
	c.AddItems(b)
	t.rebuild(c)
	core.PutCollapse(c)
}

// rebuild replaces the directory with the top k of c's distinct items,
// in c's order, each re-estimated against the current sketch; ties at
// the boundary go to the earlier item. It empties c.
func (t *Tracker) rebuild(c *core.Collapse) {
	t.items, t.ests = t.items[:0], t.ests[:0]
	for _, p := range c.Pairs() {
		t.offer(p.Item, t.sketch.Estimate(p.Item).Value)
	}
	c.Reset()
}

// offer gives x, which is not in the directory, its place there if est
// earns one: a free slot, or the weakest candidate's.
func (t *Tracker) offer(x core.Item, est uint64) {
	if len(t.items) < t.k {
		t.items = append(t.items, x)
		t.ests = append(t.ests, est)
		t.up(len(t.items) - 1)
		return
	}
	if est > t.ests[0] {
		t.items[0], t.ests[0] = x, est
		t.fix(0)
	}
}

// fix, up and down are container/heap's Fix, up and down on the
// directory's estimates, comparison for comparison and swap for swap.
func (t *Tracker) fix(i int) {
	if !t.down(i) {
		t.up(i)
	}
}

func (t *Tracker) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if t.ests[j] >= t.ests[i] {
			return
		}
		t.swap(i, j)
		j = i
	}
}

func (t *Tracker) down(i0 int) bool {
	i, n := i0, len(t.ests)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && t.ests[j2] < t.ests[j] {
			j = j2
		}
		if t.ests[j] >= t.ests[i] {
			break
		}
		t.swap(i, j)
		i = j
	}
	return i > i0
}

func (t *Tracker) swap(i, j int) {
	t.items[i], t.items[j] = t.items[j], t.items[i]
	t.ests[i], t.ests[j] = t.ests[j], t.ests[i]
}

// Estimate answers a point query via the underlying sketch.
func (t *Tracker) Estimate(x core.Item) core.Estimate { return t.sketch.Estimate(x) }

// Top returns the current directory in descending estimate order.
func (t *Tracker) Top() []core.Counter {
	out := make([]core.Counter, 0, len(t.items))
	for i, x := range t.items {
		out = append(out, core.Counter{Item: x, Count: t.ests[i]})
	}
	core.SortCountersDesc(out)
	return out
}

// HeavyHitters returns directory items whose estimate reaches
// threshold, descending.
func (t *Tracker) HeavyHitters(threshold uint64) []core.Counter {
	var out []core.Counter
	for i, x := range t.items {
		if t.ests[i] >= threshold {
			out = append(out, core.Counter{Item: x, Count: t.ests[i]})
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
	t.rerank(t.items, other.items)
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

// Clone returns a deep copy.
func (t *Tracker) Clone() *Tracker {
	c := &Tracker{k: t.k, sketch: t.sketch.Clone()}
	c.rerank(t.items, nil)
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
	w.Grow(3*10 + len(inner)*2 + len(t.items)*10)
	w.Int(t.k)
	w.Int(len(inner))
	for _, b := range inner {
		w.Uint64(uint64(b))
	}
	w.Int(len(t.items))
	for _, x := range t.items {
		w.Uint64(uint64(x))
	}
	return codec.EncodeFrame(codec.KindTopK, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The nested
// sketch frame is copied out into a buffer the receiver keeps — one
// small-uvarint run: every element must be a byte, a larger value is
// an error, not its low eight bits — and decoded into the receiver's
// own sketch; the candidates are staged in retained scratch and the
// directory rebuilt in its own arrays, a repeated candidate once. A
// reused receiver (any k, any sketch geometry, any contents; the zero
// value too) allocates nothing. A frame rejected before the nested sketch is decoded leaves
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
	}
	if err := t.sketch.UnmarshalBinary(t.inner); err != nil {
		t.sketch.Reset()
		t.items, t.ests = t.items[:0], t.ests[:0]
		return err
	}
	t.k = k
	c := core.GetCollapse()
	for _, x := range t.cands {
		c.Add(core.Item(x), 1)
	}
	t.rebuild(c)
	core.PutCollapse(c)
	return nil
}

var _ core.FrequencySummary = (*Tracker)(nil)
