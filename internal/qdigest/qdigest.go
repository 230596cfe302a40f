// Package qdigest implements the q-digest of Shrivastava, Buragohain,
// Agrawal and Suri — the prior mergeable quantile summary the PODS'12
// paper compares its randomized construction against (§3): for a fixed
// integer universe [0, 2^logU) it answers rank queries with error at
// most εn using O((1/ε)·log u) nodes, and it is deterministically and
// trivially mergeable (add node counts, re-compress).
//
// The structure is a binary tree over the universe; node v covers a
// dyadic range, the root covers everything. The digest keeps a sparse
// set of node counts satisfying the q-digest property with threshold
// t = ⌊n/k⌋:
//
//	(1) non-leaf nodes have count ≤ t, and
//	(2) a node, its sibling and its parent together exceed t
//	    (otherwise they are merged upward by Compress).
//
// A rank query sums the counts of nodes entirely below the query
// point; each of the logU levels contributes at most t uncertainty
// from the single spanning node, so rank error ≤ logU·⌊n/k⌋ ≤ εn for
// k = ⌈logU/ε⌉.
//
// The trade-offs against the paper's randomized summary (package
// randquant) are exactly the ones §3 motivates: q-digest needs a
// bounded integer universe and pays a log u factor, but is
// deterministic; the randomized summary is comparison-based
// (unbounded universe) and smaller. Experiment E18 measures both.
//
// Storage is flat. Node ids use heap numbering (root 1, children 2v
// and 2v+1), so ascending id order is level order with siblings
// adjacent: the body is two parallel ascending slices (ids, counts),
// a merge is a two-pointer add of two sorted runs, and Compress is a
// bottom-up sweep that joins each level's run with its parents' run.
// Single updates between compressions land in a small open-addressed
// table of pending leaves (the layout package mg uses for its
// counters), which Compress sorts and appends — leaves are the largest
// ids; a batch is sorted into a run of its own and merged like another
// digest's body (batch.go). Every sort is core.SortKeys, and no path
// walks a Go map or allocates in steady state.
package qdigest

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
)

// fibMul is the 64-bit Fibonacci hashing multiplier; see package mg.
const fibMul = 0x9E3779B97F4A7C15

// minTable is the smallest leaf-table size (a power of two).
const minTable = 16

// Digest is a q-digest over the universe [0, 2^logU). The zero value
// is not usable; use New. Not safe for concurrent use.
type Digest struct {
	logU uint8
	k    uint64
	n    uint64

	// Body: node ids (1 = root) strictly ascending, counts parallel.
	ids    []uint64
	counts []uint64

	// Pending leaves: an open-addressed table of leaf ids updated
	// since the last flush and absent from the body (so Size is exact).
	// tabKeys[i] == 0 marks slot i empty — no node has id 0. The table
	// has power-of-two length; tabShift = 64 - log2(len).
	tabKeys   []uint64
	tabCounts []uint64
	tabLive   int
	tabShift  uint

	// dirty counts insertions since the last compress and base is the
	// size that compress left: the next one is due once dirty exceeds
	// base+compressSlack, so compression is amortized over Θ(size)
	// updates and no Update or UpdateBatch returns with more than
	// 2·base+compressSlack+1 nodes.
	dirty uint64
	base  int
	// clean: the body is at Compress's fixpoint and nothing has touched
	// the digest since, so Compress has nothing to do.
	clean bool

	// Scratch runs reused by flush, the batch path, Merge, Compress and
	// decode.
	sIDs, sCounts []uint64
	tIDs, tCounts []uint64
}

// compressSlack keeps a near-empty digest from compressing on every
// update.
const compressSlack = 16

// New returns an empty digest over [0, 2^logU) with compression factor
// k: rank error is at most logU·⌊n/k⌋. logU must be in [1, 62], k >= 1.
func New(logU uint8, k uint64) *Digest {
	if logU < 1 || logU > 62 {
		panic("qdigest: logU must be in [1, 62]")
	}
	if k < 1 {
		panic("qdigest: k must be >= 1")
	}
	return &Digest{logU: logU, k: k}
}

// NewEpsilon returns a digest with rank error at most eps*n:
// k = ceil(logU/eps).
func NewEpsilon(logU uint8, eps float64) *Digest {
	if eps <= 0 || eps >= 1 {
		panic("qdigest: eps must be in (0, 1)")
	}
	return New(logU, uint64(math.Ceil(float64(logU)/eps)))
}

// LogUniverse returns logU.
func (d *Digest) LogUniverse() uint8 { return d.logU }

// K returns the compression factor.
func (d *Digest) K() uint64 { return d.k }

// N returns the total weight summarized, including merges.
func (d *Digest) N() uint64 { return d.n }

// Size returns the number of stored nodes.
func (d *Digest) Size() int { return len(d.ids) + d.tabLive }

// ErrorBound returns the current deterministic rank-error bound
// logU·⌊n/k⌋.
func (d *Digest) ErrorBound() uint64 {
	return uint64(d.logU) * (d.n / d.k)
}

// level returns the depth of node id (root = 0).
func level(id uint64) uint8 { return uint8(bits.Len64(id) - 1) }

// leaf returns the id of the leaf that counts value v, clamped into
// the universe.
//
//sketch:hotpath
func (d *Digest) leaf(v uint64) uint64 {
	return uint64(1)<<d.logU + min(v, uint64(1)<<d.logU-1)
}

// upper returns the largest value covered by node id.
func (d *Digest) upper(id uint64) uint64 {
	sh := d.logU - level(id)
	return (id+1)<<sh - uint64(1)<<d.logU - 1
}

// Update adds w >= 1 occurrences of value v (clamped into the
// universe).
func (d *Digest) Update(v uint64, w uint64) {
	if w == 0 {
		panic("qdigest: zero-weight update")
	}
	d.addLeaf(d.leaf(v), w)
	d.n += w
	d.inserted(1)
	debugAssertSampled(d)
}

// inserted counts m insertions and compresses when one is due. Growth
// is measured against the size the last Compress left, not the current
// one: a stream of distinct values grows the size with every insertion,
// and a trigger that chases it never fires.
//
//sketch:hotpath
func (d *Digest) inserted(m int) {
	d.dirty += uint64(m)
	if d.dirty > uint64(d.base)+compressSlack {
		d.Compress()
	}
}

// addLeaf adds w to leaf id: in the pending table if it is there, in
// the body if it is there, as a new pending leaf otherwise.
//
//sketch:hotpath
func (d *Digest) addLeaf(id, w uint64) {
	d.clean = false
	if len(d.tabKeys) == 0 {
		d.growTable()
	}
	mask := uint64(len(d.tabKeys) - 1)
	i := (id * fibMul) >> d.tabShift
	for {
		k := d.tabKeys[i]
		if k == id {
			d.tabCounts[i] += w
			return
		}
		if k == 0 {
			break
		}
		i = (i + 1) & mask
	}
	if j, ok := slices.BinarySearch(d.ids, id); ok {
		d.counts[j] += w
		return
	}
	if d.tabLive >= len(d.tabKeys)/2+len(d.tabKeys)/8 {
		d.growTable()
		mask = uint64(len(d.tabKeys) - 1)
		i = (id * fibMul) >> d.tabShift
		for d.tabKeys[i] != 0 {
			i = (i + 1) & mask
		}
	}
	d.tabKeys[i] = id
	d.tabCounts[i] = w
	d.tabLive++
}

// growTable doubles the pending-leaf table (or creates it), rehashing
// the live entries.
func (d *Digest) growTable() {
	size := 2 * len(d.tabKeys)
	if size < minTable {
		size = minTable
	}
	oldKeys, oldCounts := d.tabKeys, d.tabCounts
	buf := make([]uint64, 2*size)
	d.tabKeys, d.tabCounts = buf[:size:size], buf[size:]
	d.tabShift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := (k * fibMul) >> d.tabShift
		for d.tabKeys[i] != 0 {
			i = (i + 1) & mask
		}
		d.tabKeys[i], d.tabCounts[i] = k, oldCounts[j]
	}
}

// pending returns the pending count of leaf id, or 0.
func (d *Digest) pending(id uint64) uint64 {
	if d.tabLive == 0 {
		return 0
	}
	mask := uint64(len(d.tabKeys) - 1)
	for i := (id * fibMul) >> d.tabShift; d.tabKeys[i] != 0; i = (i + 1) & mask {
		if d.tabKeys[i] == id {
			return d.tabCounts[i]
		}
	}
	return 0
}

// flush moves the pending leaves into the body. The table holds only
// leaves the body lacks, so this is a sort of the pending ids and a
// backward in-place merge into the body's tail.
//
//sketch:hotpath
func (d *Digest) flush() {
	if d.tabLive == 0 {
		return
	}
	keys := d.sIDs[:0]
	for _, k := range d.tabKeys {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	d.tIDs = slices.Grow(d.tIDs[:0], len(keys))
	core.SortKeys(keys, d.tIDs[:len(keys)], 0, uint(d.logU))
	m := len(d.ids)
	total := m + len(keys)
	d.ids = slices.Grow(d.ids, len(keys))[:total]
	d.counts = slices.Grow(d.counts, len(keys))[:total]
	i, w := m-1, total-1
	for j := len(keys) - 1; j >= 0; j-- {
		k := keys[j]
		for i >= 0 && d.ids[i] > k {
			d.ids[w], d.counts[w] = d.ids[i], d.counts[i]
			i--
			w--
		}
		d.ids[w], d.counts[w] = k, d.pending(k)
		w--
	}
	d.sIDs = keys[:0]
	d.clearTable()
}

func (d *Digest) clearTable() {
	if d.tabLive != 0 {
		clear(d.tabKeys)
		d.tabLive = 0
	}
}

// Rank estimates the number of inserted values <= v: the sum of node
// counts whose ranges lie entirely at or below v. The estimate never
// exceeds the true rank and undershoots by at most ErrorBound().
func (d *Digest) Rank(v uint64) uint64 {
	d.Compress()
	var r uint64
	for i, id := range d.ids {
		if d.upper(id) <= v {
			r += d.counts[i]
		}
	}
	return r
}

// Quantile returns a value whose rank is within ErrorBound() of
// phi*N: the canonical post-order walk accumulating counts.
//
// Each level's run of the body is already in range order, so the
// post-order (by upper bound, deeper nodes first) is a merge of the
// level runs: one cursor per level, smallest upper bound next.
func (d *Digest) Quantile(phi float64) uint64 {
	d.Compress()
	if len(d.ids) == 0 {
		return 0
	}
	// cursor[lv] walks level lv's run, which ends at cursor[lv+1]'s
	// starting position end[lv].
	var cursor, end [64]int
	for lv, i := 0, 0; lv <= int(d.logU); lv++ {
		cursor[lv] = i
		for i < len(d.ids) && d.ids[i]>>(lv+1) == 0 {
			i++
		}
		end[lv] = i
	}
	target := phi * float64(d.n)
	var cum float64
	var hi uint64
	for range d.ids {
		best := -1
		for lv := int(d.logU); lv >= 0; lv-- {
			if cursor[lv] == end[lv] {
				continue
			}
			if h := d.upper(d.ids[cursor[lv]]); best < 0 || h < hi {
				best, hi = lv, h
			}
		}
		cum += float64(d.counts[cursor[best]])
		cursor[best]++
		if cum >= target {
			return hi
		}
	}
	return hi
}

// Merge folds other into d: counts add node-wise and the result is
// re-compressed — the q-digest is trivially mergeable. Digests must
// share logU and k; other is not modified.
func (d *Digest) Merge(other *Digest) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if d.logU != other.logU || d.k != other.k {
		return fmt.Errorf("%w: qdigest logU/k", core.ErrMismatchedShape)
	}
	d.flush()
	d.mergeBody(other.ids, other.counts)
	if other.tabLive != 0 {
		for i, k := range other.tabKeys {
			if k != 0 {
				d.addLeaf(k, other.tabCounts[i])
			}
		}
	}
	d.n += other.n
	d.Compress()
	debugAssert(d)
	return nil
}

// mergeBody adds the sorted run (oi, oc) into the body node-wise: a
// two-pointer union into scratch, which then trades places with the
// body.
//
//sketch:hotpath
func (d *Digest) mergeBody(oi, oc []uint64) {
	d.clean = false
	ai, ac := d.ids, d.counts
	bound := len(ai) + len(oi)
	ri := slices.Grow(d.sIDs[:0], bound)[:bound]
	rc := slices.Grow(d.sCounts[:0], bound)[:bound]
	a, b, w := 0, 0, 0
	for a < len(ai) && b < len(oi) {
		switch x, y := ai[a], oi[b]; {
		case x < y:
			ri[w], rc[w] = x, ac[a]
			a++
		case x > y:
			ri[w], rc[w] = y, oc[b]
			b++
		default:
			ri[w], rc[w] = x, ac[a]+oc[b]
			a++
			b++
		}
		w++
	}
	w += copy(ri[w:], ai[a:])
	copy(rc[w-len(ai)+a:], ac[a:])
	w += copy(ri[w:], oi[b:])
	copy(rc[w-len(oi)+b:], oc[b:])
	d.ids, d.counts, d.sIDs, d.sCounts = ri[:w], rc[:w], ai[:0], ac[:0]
}

// Merged returns the merge of a and b without modifying either.
func Merged(a, b *Digest) (*Digest, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// Clone returns a deep copy.
func (d *Digest) Clone() *Digest {
	c := New(d.logU, d.k)
	c.n = d.n
	c.dirty, c.base, c.clean = d.dirty, d.base, d.clean
	c.ids = slices.Clone(d.ids)
	c.counts = slices.Clone(d.counts)
	if d.tabLive != 0 {
		c.tabKeys = slices.Clone(d.tabKeys)
		c.tabCounts = slices.Clone(d.tabCounts)
		c.tabLive, c.tabShift = d.tabLive, d.tabShift
	}
	return c
}

// count returns the count stored for node id, or 0.
func (d *Digest) count(id uint64) uint64 {
	if j, ok := slices.BinarySearch(d.ids, id); ok {
		return d.counts[j]
	}
	return d.pending(id)
}

// checkLayout verifies the flat representation: body ids strictly
// ascending with one count each, and the pending table holding
// exactly tabLive leaves, none of which the body also stores (the
// body and the table must agree on Size).
func (d *Digest) checkLayout() error {
	if len(d.ids) != len(d.counts) {
		return fmt.Errorf("body holds %d ids but %d counts", len(d.ids), len(d.counts))
	}
	for i := 1; i < len(d.ids); i++ {
		if d.ids[i-1] >= d.ids[i] {
			return fmt.Errorf("body ids not strictly ascending at %d", i)
		}
	}
	live := 0
	for _, k := range d.tabKeys {
		if k == 0 {
			continue
		}
		live++
		if level(k) != d.logU {
			return fmt.Errorf("pending node %d is not a leaf", k)
		}
		if _, ok := slices.BinarySearch(d.ids, k); ok {
			return fmt.Errorf("leaf %d is both pending and in the body", k)
		}
	}
	if live != d.tabLive {
		return fmt.Errorf("pending table holds %d leaves, tabLive says %d", live, d.tabLive)
	}
	return nil
}

// checkInvariants verifies the layout and the q-digest property; used
// by tests and the sanitize layer. It must be called right after
// Compress.
func (d *Digest) checkInvariants() error {
	if err := d.checkLayout(); err != nil {
		return err
	}
	var sum uint64
	t := d.n / d.k
	maxID := uint64(1) << (d.logU + 1)
	check := func(id, c uint64) error {
		if c == 0 {
			return fmt.Errorf("zero-count node %d", id)
		}
		if id < 1 || id >= maxID {
			return fmt.Errorf("node id %d out of tree", id)
		}
		sum += c
		if id == 1 {
			return nil
		}
		if total := c + d.count(id^1) + d.count(id>>1); total <= t {
			return fmt.Errorf("node %d violates compression: %d <= %d", id, total, t)
		}
		return nil
	}
	for i, id := range d.ids {
		if err := check(id, d.counts[i]); err != nil {
			return err
		}
	}
	for i, k := range d.tabKeys {
		if k != 0 {
			if err := check(k, d.tabCounts[i]); err != nil {
				return err
			}
		}
	}
	if sum != d.n {
		return fmt.Errorf("Σ counts %d != n %d", sum, d.n)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
//
// Compress is an idempotent canonicalization, not an impurity: the
// q-digest invariant requires the encoded tree to be in compressed
// form so equal logical states encode to identical bytes, and
// compressing an already-compressed digest is a no-op. Callers hold
// exclusive access during encode (the merge plane encodes under the
// slot lock), so the mutation cannot race.
//
//sketch:encodemutates
//sketch:hotpath
func (d *Digest) MarshalBinary() ([]byte, error) {
	d.Compress()
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header (logU, k, n, len) plus (id, count) uvarints per node.
	w.Grow(4*10 + len(d.ids)*2*10)
	w.Int(int(d.logU))
	w.Uint64(d.k)
	w.Uint64(d.n)
	w.Int(len(d.ids))
	for i, id := range d.ids {
		w.Uint64(id)
		// The committed wire schema labels this field counts[id] (the
		// count of node id); the body stores it at id's position.
		id := i
		w.Uint64(d.counts[id])
	}
	return codec.EncodeFrame(codec.KindQDigest, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Nodes decode
// into the receiver's scratch run, which trades places with the body
// once the frame is validated, so a pooled decode target allocates
// nothing in steady state and a rejected frame leaves the receiver
// untouched.
//
//sketch:hotpath
func (d *Digest) UnmarshalBinary(data []byte) error {
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
		return errHeader(logU, k)
	}
	maxID := uint64(1) << (uint8(logU) + 1)
	ids := slices.Grow(d.sIDs[:0], m)[:m]
	counts := slices.Grow(d.sCounts[:0], m)[:m]
	var sum, prev, unsorted uint64
	// The nodes are read as runs of (id, count) pairs into a buffer on
	// the stack, and checked a run at a time.
	var buf [256]uint64
	for j, c := 0, 0; j < m; j += c {
		c = min(m-j, len(buf)/2)
		r.Uint64s(buf[:2*c])
		if r.Err() != nil {
			break
		}
		for i := range c {
			id, cnt := buf[2*i], buf[2*i+1]
			if id-1 >= maxID-1 {
				return errNodeRange(id)
			}
			if cnt == 0 {
				return errZeroCount(id)
			}
			unsorted |= bit(id <= prev)
			prev = id
			ids[j+i], counts[j+i] = id, cnt
			sum += cnt
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	// Canonical frames list nodes in ascending id order; any order
	// without duplicates is accepted.
	if unsorted != 0 {
		sort.Sort(nodesByID{ids, counts})
		for i := 1; i < len(ids); i++ {
			if ids[i-1] == ids[i] {
				return errDuplicate(ids[i])
			}
		}
	}
	if sum != n {
		return errWeight(sum, n)
	}
	d.logU, d.k, d.n = uint8(logU), k, n
	d.dirty, d.base, d.clean = 0, len(ids), false
	d.ids, d.counts, d.sIDs, d.sCounts = ids, counts, d.ids[:0], d.counts[:0]
	d.clearTable()
	return nil
}

// Decode errors live outside UnmarshalBinary so the hot path carries
// no fmt call.
func errHeader(logU int, k uint64) error {
	return fmt.Errorf("qdigest: invalid header (logU=%d, k=%d)", logU, k)
}
func errNodeRange(id uint64) error { return fmt.Errorf("qdigest: node id %d out of tree", id) }
func errZeroCount(id uint64) error { return fmt.Errorf("qdigest: zero-count node %d", id) }
func errDuplicate(id uint64) error { return fmt.Errorf("qdigest: duplicate node %d", id) }
func errWeight(sum, n uint64) error {
	return fmt.Errorf("qdigest: frame weight %d != n %d", sum, n)
}

// nodesByID sorts parallel (ids, counts) runs by id.
type nodesByID struct{ ids, counts []uint64 }

func (s nodesByID) Len() int           { return len(s.ids) }
func (s nodesByID) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s nodesByID) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
}
