package qdigest

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
)

// refDigest is the map-based q-digest this package shipped before the
// flat layout, kept as the differential oracle: the flat Digest must
// reproduce its encoded bytes after every operation. It states the
// compress schedule (when a compression is due, and that a batch is
// ingested a run of batchRun values at a time) in the plainest terms,
// and its Compress is the loop to a pass that merges nothing — the
// fixpoint Digest.Compress must reach without the closing pass.
type refDigest struct {
	logU   uint8
	k      uint64
	n      uint64
	counts map[uint64]uint64 // node id (1 = root) → count
	// dirty counts insertions since the last compress, base the size it
	// left; compression is amortized over Θ(size) updates.
	dirty uint64
	base  int
}

// inserted counts m insertions and compresses when more have arrived
// than the last compress left nodes (plus the slack).
func (d *refDigest) inserted(m int) {
	d.dirty += uint64(m)
	if d.dirty > uint64(d.base)+compressSlack {
		d.Compress()
	}
}

// New returns an empty digest over [0, 2^logU) with compression factor
// k: rank error is at most logU·⌊n/k⌋. logU must be in [1, 62], k >= 1.
func newRef(logU uint8, k uint64) *refDigest {
	if logU < 1 || logU > 62 {
		panic("qdigest: logU must be in [1, 62]")
	}
	if k < 1 {
		panic("qdigest: k must be >= 1")
	}
	return &refDigest{logU: logU, k: k, counts: make(map[uint64]uint64)}
}

// Size returns the number of stored nodes.
func (d *refDigest) Size() int { return len(d.counts) }

// leaf returns the node id of value v's leaf.
func (d *refDigest) leaf(v uint64) uint64 {
	return (uint64(1) << d.logU) + v
}

// level returns the depth of node id (root = 0).
func refLevel(id uint64) uint8 {
	l := uint8(0)
	for id > 1 {
		id >>= 1
		l++
	}
	return l
}

// rangeOf returns the inclusive value range covered by node id.
func (d *refDigest) rangeOf(id uint64) (lo, hi uint64) {
	lv := refLevel(id)
	span := uint64(1) << (d.logU - lv)
	lo = (id - (uint64(1) << lv)) * span
	return lo, lo + span - 1
}

// Update adds w >= 1 occurrences of value v (clamped into the
// universe).
func (d *refDigest) Update(v uint64, w uint64) {
	if w == 0 {
		panic("qdigest: zero-weight update")
	}
	max := (uint64(1) << d.logU) - 1
	if v > max {
		v = max
	}
	d.counts[d.leaf(v)] += w
	d.n += w
	d.inserted(1)
}

// Compress restores the q-digest property, merging under-full sibling
// pairs into their parents bottom-up. It runs in O(size·log size).
func (d *refDigest) Compress() {
	d.dirty = 0
	defer func() { d.base = len(d.counts) }()
	t := d.n / d.k
	if t == 0 || len(d.counts) == 0 {
		return
	}
	// Sweep levels bottom-up until a fixpoint: a pass can re-enable
	// merges below (a parent that moved its count upward leaves its
	// remaining child's triple under the threshold), and every merge
	// strictly shrinks the node set, so the loop terminates quickly.
	for {
		merged := false
		byLevel := make([][]uint64, d.logU+1)
		for id := range d.counts {
			lv := refLevel(id)
			byLevel[lv] = append(byLevel[lv], id)
		}
		for lv := int(d.logU); lv >= 1; lv-- {
			for _, id := range byLevel[lv] {
				c, ok := d.counts[id]
				if !ok {
					continue // already folded into its parent
				}
				sib := id ^ 1
				parent := id >> 1
				total := c + d.counts[sib] + d.counts[parent]
				if total <= t {
					_, parentExisted := d.counts[parent]
					delete(d.counts, id)
					delete(d.counts, sib)
					d.counts[parent] = total
					merged = true
					if !parentExisted {
						byLevel[lv-1] = append(byLevel[lv-1], parent)
					}
				}
			}
		}
		if !merged {
			return
		}
	}
}

// Rank estimates the number of inserted values <= v: the sum of node
// counts whose ranges lie entirely at or below v. The estimate never
// exceeds the true rank and undershoots by at most ErrorBound().
func (d *refDigest) Rank(v uint64) uint64 {
	d.Compress()
	var r uint64
	for id, c := range d.counts {
		_, hi := d.rangeOf(id)
		if hi <= v {
			r += c
		}
	}
	return r
}

// Quantile returns a value whose rank is within ErrorBound() of
// phi*N: the canonical post-order walk accumulating counts.
func (d *refDigest) Quantile(phi float64) uint64 {
	d.Compress()
	if len(d.counts) == 0 {
		return 0
	}
	type nodeCount struct {
		hi, lo, c uint64
	}
	nodes := make([]nodeCount, 0, len(d.counts))
	for id, c := range d.counts {
		lo, hi := d.rangeOf(id)
		nodes = append(nodes, nodeCount{hi: hi, lo: lo, c: c})
	}
	// Post-order over the range tree: by upper bound, then smaller
	// ranges (deeper nodes) first.
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].hi != nodes[j].hi {
			return nodes[i].hi < nodes[j].hi
		}
		return nodes[i].lo > nodes[j].lo
	})
	target := phi * float64(d.n)
	var cum float64
	for _, nc := range nodes {
		cum += float64(nc.c)
		if cum >= target {
			return nc.hi
		}
	}
	return nodes[len(nodes)-1].hi
}

// Merge folds other into d: counts add node-wise and the result is
// re-compressed — the q-digest is trivially mergeable. Digests must
// share logU and k; other is not modified.
func (d *refDigest) Merge(other *refDigest) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if d.logU != other.logU || d.k != other.k {
		return fmt.Errorf("%w: qdigest logU/k", core.ErrMismatchedShape)
	}
	for id, c := range other.counts {
		d.counts[id] += c
	}
	d.n += other.n
	d.Compress()
	return nil
}

// Clone returns a deep copy.
func (d *refDigest) Clone() *refDigest {
	c := newRef(d.logU, d.k)
	c.n = d.n
	c.dirty, c.base = d.dirty, d.base
	for id, v := range d.counts {
		c.counts[id] = v
	}
	return c
}

// MarshalBinary implements encoding.BinaryMarshaler.
//
// Compress is an idempotent canonicalization, not an impurity: the
// q-digest invariant requires the encoded tree to be in compressed
// form so equal logical states encode to identical bytes, and
// compressing an already-compressed digest is a no-op. Callers hold
// exclusive access during encode (the merge plane encodes under the
// slot lock), so the mutation cannot race.
func (d *refDigest) MarshalBinary() ([]byte, error) {
	d.Compress()
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header (logU, k, n, len) plus (id, count) uvarints per node.
	w.Grow(4*10 + len(d.counts)*2*10)
	w.Int(int(d.logU))
	w.Uint64(d.k)
	w.Uint64(d.n)
	ids := make([]uint64, 0, len(d.counts))
	for id := range d.counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Int(len(ids))
	for _, id := range ids {
		w.Uint64(id)
		w.Uint64(d.counts[id])
	}
	return codec.EncodeFrame(codec.KindQDigest, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (d *refDigest) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindQDigest, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	logU := r.Int()
	k := r.Uint64()
	n := r.Uint64()
	m := r.ArrayLen(2)
	if r.Err() != nil {
		return r.Err()
	}
	if logU < 1 || logU > 62 || k < 1 {
		return fmt.Errorf("qdigest: invalid header (logU=%d, k=%d)", logU, k)
	}
	out := newRef(uint8(logU), k)
	out.n, out.base = n, m
	maxID := uint64(1) << (uint8(logU) + 1)
	var sum uint64
	for i := 0; i < m; i++ {
		id := r.Uint64()
		c := r.Uint64()
		if r.Err() == nil {
			if id < 1 || id >= maxID {
				return fmt.Errorf("qdigest: node id %d out of tree", id)
			}
			if c == 0 {
				return fmt.Errorf("qdigest: zero-count node %d", id)
			}
			if _, dup := out.counts[id]; dup {
				return fmt.Errorf("qdigest: duplicate node %d", id)
			}
			out.counts[id] = c
			sum += c
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if sum != n {
		return fmt.Errorf("qdigest: frame weight %d != n %d", sum, n)
	}
	*d = *out
	return nil
}

// UpdateBatch adds one occurrence of every value in vs (each clamped
// into the universe), batchRun values at a time with one compression
// check after each run.
func (d *refDigest) UpdateBatch(vs []uint64) {
	max := (uint64(1) << d.logU) - 1
	for len(vs) > 0 {
		m := min(len(vs), batchRun)
		for _, v := range vs[:m] {
			d.counts[d.leaf(min(v, max))]++
		}
		d.n += uint64(m)
		d.inserted(m)
		vs = vs[m:]
	}
}

// UpdateBatchWeighted adds Weight occurrences of every Value in vs,
// in runs as UpdateBatch does. All weights must be >= 1.
func (d *refDigest) UpdateBatchWeighted(vs []WeightedValue) {
	max := (uint64(1) << d.logU) - 1
	for _, wv := range vs {
		if wv.Weight == 0 {
			panic("qdigest: zero-weight update")
		}
	}
	for len(vs) > 0 {
		m := min(len(vs), batchRun)
		for _, wv := range vs[:m] {
			d.counts[d.leaf(min(wv.Value, max))] += wv.Weight
			d.n += wv.Weight
		}
		d.inserted(m)
		vs = vs[m:]
	}
}
