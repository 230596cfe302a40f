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
}

// runs is the scratch a call borrows from lender and hands back before
// it returns: the tracker keeps only its state. inner is the nested
// sketch frame a codec call builds or reads; cands a decode's
// candidates; dir the directory an encode writes.
type runs struct {
	inner []byte
	cands []uint64
	dir   Tracker
}

var lender core.Pool[runs]

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
func (t *Tracker) UpdateBatch(xs []core.Item) {
	t.sketch.UpdateBatch(xs)
	for len(xs) > 0 {
		run := xs[:min(len(xs), core.CollapseRun)]
		xs = xs[len(run):]
		t.rerank(t.items, run)
	}
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

// Clone returns a deep copy.
func (t *Tracker) Clone() *Tracker {
	c := &Tracker{k: t.k, sketch: t.sketch.Clone()}
	c.rerank(t.items, nil)
	return c
}

// MarshalBinary implements encoding.BinaryMarshaler: the sketch frame
// followed by the directory, wrapped in one outer frame. The directory
// goes out as rebuild makes it from the candidates against the sketch
// as it is now — Update refreshes only its own item's estimate, so the
// heap may be ordered by stale ones — and so as the decoder rebuilds
// it: a tracker has one frame. The nested frame and the directory are
// built in borrowed runs, so steady-state encoding allocates only the
// returned frame.
func (t *Tracker) MarshalBinary() ([]byte, error) {
	rs := lender.Get()
	defer lender.Put(rs)
	inner, err := t.sketch.AppendBinary(rs.inner[:0])
	if err != nil {
		return nil, err
	}
	rs.inner = inner
	dir := &rs.dir
	dir.k, dir.items, dir.ests = t.k, dir.items[:0], dir.ests[:0]
	for _, x := range t.items {
		dir.offer(x, t.sketch.Estimate(x).Value)
	}
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Inner frame bytes cost up to two uvarint bytes each; directory
	// items up to ten. Sized by the candidates held, not by k: a
	// decoded frame may claim any k and hold none.
	w.Grow(3*10 + len(inner)*2 + len(t.items)*10)
	w.Int(t.k)
	w.Int(len(inner))
	w.Uint8s(inner)
	w.Int(len(dir.items))
	codec.Uvarints(w, dir.items)
	return codec.EncodeFrame(codec.KindTopK, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The nested
// sketch frame is copied out into borrowed runs — one small-uvarint
// run: every element must be a byte, a larger value is an error, not
// its low eight bits — and decoded into the receiver's own sketch; the
// candidates are staged in the runs too and become the directory in
// its own arrays. They must be the directory MarshalBinary writes:
// distinct, and a min-heap on their estimates against the decoded
// sketch, which rebuild would leave as it is. A reused receiver (any
// k, any sketch geometry, any contents; the zero value too) allocates
// nothing. A frame rejected before the nested sketch is decoded leaves
// the receiver untouched; one rejected at its nested frame or its
// candidates leaves it empty.
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
	rs := lender.Get()
	defer lender.Put(rs)
	rs.inner = codec.Resize(rs.inner, il)
	r.Uint8s(rs.inner, 255)
	m := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	rs.cands = codec.Resize(rs.cands, m)
	r.Uint64s(rs.cands)
	if err := r.Finish(); err != nil {
		return err
	}
	if m > k {
		return fmt.Errorf("topk: %d candidates exceed k=%d", m, k)
	}
	if t.sketch == nil {
		t.sketch = new(countmin.Sketch)
	}
	t.items, t.ests = t.items[:0], t.ests[:0]
	if err := t.sketch.UnmarshalBinary(rs.inner); err != nil {
		t.sketch.Reset()
		return err
	}
	t.k = k
	c := core.GetCollapse()
	for _, x := range rs.cands {
		c.Add(core.Item(x), 1)
	}
	distinct := len(c.Pairs()) == m
	core.PutCollapse(c)
	if !distinct {
		t.sketch.Reset()
		return fmt.Errorf("topk: a candidate repeats")
	}
	for i, x := range rs.cands {
		est := t.sketch.Estimate(core.Item(x)).Value
		if i > 0 && est < t.ests[(i-1)/2] {
			t.sketch.Reset()
			t.items, t.ests = t.items[:0], t.ests[:0]
			return fmt.Errorf("topk: candidate %d out of heap order", i)
		}
		t.items, t.ests = append(t.items, core.Item(x)), append(t.ests, est)
	}
	return nil
}

var _ core.FrequencySummary = (*Tracker)(nil)
