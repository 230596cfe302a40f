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
// adjacent: the body is two parallel ascending slices (ids, counts).
// Every run enters the body one way, mergeBody's two-pointer add of two
// sorted runs: another digest's body, a batch sorted into a run of its
// own (batch.go), and the single updates since the last compression,
// which wait in a dense run of pending leaves found through a
// core.Index and are sorted with their counts when Compress flushes
// them. Compress is one bottom-up sweep, joining each level's run with
// its parents' run, repeated until a sweep proves the fixpoint
// (compress.go). Every sort is core.SortKeys, and no path walks a Go map
// or allocates in steady state. The digest keeps only its nodes: the
// sort keys, merge target and compress level runs are borrowed for each
// call from a core.Pool and handed back before it returns, and keep
// leaves the body in storage sized to it at the end of every call.
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

// Digest is a q-digest over the universe [0, 2^logU). The zero value
// is not usable; use New. Not safe for concurrent use.
type Digest struct {
	logU uint8
	k    uint64
	n    uint64

	// Body: node ids (1 = root) strictly ascending, counts parallel.
	ids    []uint64
	counts []uint64

	// Pending leaves: the leaves updated since the last flush and absent
	// from the body (so Size is exact), as a dense run (pendIDs,
	// pendCounts) in order of arrival, indexed by leaf id.
	pendIDs, pendCounts []uint64
	pend                core.Index

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
}

// runs is the scratch a call borrows from lender and hands back before
// it returns: the digest keeps only its state. ids and counts are the
// merge target a call rebuilds the body in (mergeBody, decode); w are
// flush's pending run sorted with its counts, a batch's leaf run, and
// compressPass's level runs.
type runs struct {
	ids, counts []uint64
	w           [4][]uint64
}

var lender core.Pool[runs]

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
func (d *Digest) Size() int { return len(d.ids) + len(d.pendIDs) }

// ErrorBound returns the current deterministic rank-error bound
// logU·⌊n/k⌋.
func (d *Digest) ErrorBound() uint64 {
	return uint64(d.logU) * (d.n / d.k)
}

// level returns the depth of node id (root = 0).
func level(id uint64) uint8 { return uint8(bits.Len64(id) - 1) }

// leaf returns the id of the leaf that counts value v, clamped into
// the universe.
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
	if d.inserted(1) {
		d.Compress()
	}
	debugAssertSampled(d)
}

// inserted counts m insertions and reports whether a compress is due.
// Growth is measured against the size the last Compress left, not the
// current one: a stream of distinct values grows the size with every
// insertion, and a trigger that chases it never fires.
func (d *Digest) inserted(m int) bool {
	d.dirty += uint64(m)
	return d.dirty > uint64(d.base)+compressSlack
}

// addLeaf adds w to leaf id: in the pending run if it is there, in the
// body if it is there, as a new pending leaf otherwise, through one
// probe of the index (grown first when it is full).
func (d *Digest) addLeaf(id, w uint64) {
	d.clean = false
	if d.pend.Room() == 0 {
		d.pend.Reserve(len(d.pendIDs) + 1)
	}
	i, p := d.pend.Slot(id)
	if p >= 0 {
		d.pendCounts[p] += w
		return
	}
	if j, ok := slices.BinarySearch(d.ids, id); ok {
		d.counts[j] += w
		return
	}
	d.pend.Put(i, id, int32(len(d.pendIDs)))
	d.pendIDs = append(d.pendIDs, id)
	d.pendCounts = append(d.pendCounts, w)
}

// flush moves the pending leaves into the body: sorted with their
// counts, they are one more run for mergeBody, and the caller ends
// with keep.
func (d *Digest) flush(rs *runs) {
	if len(d.pendIDs) == 0 {
		return
	}
	ids := append(rs.w[0][:0], d.pendIDs...)
	counts := slices.Grow(rs.w[1][:0], len(ids))[:len(ids)]
	core.SortKeys(ids, counts, 0, uint(d.logU))
	for i, id := range ids {
		counts[i] = d.pendCounts[d.pend.Find(id)]
	}
	d.mergeBody(rs, ids, counts)
	rs.w[0], rs.w[1] = ids[:0], counts[:0]
	d.clearPending()
}

// clearPending empties the pending run, keeping the index sized for as
// many leaves as it held.
func (d *Digest) clearPending() {
	if len(d.pendIDs) != 0 {
		d.pend.Reset(len(d.pendIDs))
		d.pendIDs, d.pendCounts = d.pendIDs[:0], d.pendCounts[:0]
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
	rs := lender.Get()
	d.flush(rs)
	d.mergeBody(rs, other.ids, other.counts)
	for i, id := range other.pendIDs {
		d.addLeaf(id, other.pendCounts[i])
	}
	d.n += other.n
	d.compress(rs)
	d.keep(rs)
	lender.Put(rs)
	debugAssert(d)
	return nil
}

// mergeBody adds the sorted run (oi, oc) into the body node-wise: a
// two-pointer union into the borrowed merge target, which then trades
// places with the body until keep moves the body home.
func (d *Digest) mergeBody(rs *runs, oi, oc []uint64) {
	d.clean = false
	ai, ac := d.ids, d.counts
	bound := len(ai) + len(oi)
	ri := slices.Grow(rs.ids[:0], bound)[:bound]
	rc := slices.Grow(rs.counts[:0], bound)[:bound]
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
	d.ids, d.counts, rs.ids, rs.counts = ri[:w], rc[:w], ai[:0], ac[:0]
}

// keep ends every call that changes the body. mergeBody and the decoder
// leave the body in the borrowed merge target and the digest's own
// storage in rs. Storage that fits the body (core.Fits) stays with the
// digest, the two having traded places if they did; any other body is
// copied into the storage in rs, grown only when the state outgrew it,
// and its own goes back to rs. So the digest ends every call owning
// storage sized to its state, never a run it gave back.
func (d *Digest) keep(rs *runs) {
	if n := len(d.ids); core.Fits(cap(d.ids), n, n) && core.Fits(cap(d.counts), n, n) {
		return
	}
	ids, counts := rs.ids, rs.counts
	rs.ids, rs.counts = d.ids[:0], d.counts[:0]
	d.ids, d.counts = append(ids[:0], d.ids...), append(counts[:0], d.counts...)
}

// Clone returns a deep copy.
func (d *Digest) Clone() *Digest {
	c := New(d.logU, d.k)
	c.n = d.n
	c.dirty, c.base, c.clean = d.dirty, d.base, d.clean
	c.ids = slices.Clone(d.ids)
	c.counts = slices.Clone(d.counts)
	c.pendIDs = slices.Clone(d.pendIDs)
	c.pendCounts = slices.Clone(d.pendCounts)
	for i, id := range c.pendIDs {
		c.pend.Insert(id, int32(i))
	}
	return c
}

// count returns the count stored for node id, or 0.
func (d *Digest) count(id uint64) uint64 {
	if j, ok := slices.BinarySearch(d.ids, id); ok {
		return d.counts[j]
	}
	if p := d.pend.Find(id); p >= 0 {
		return d.pendCounts[p]
	}
	return 0
}

// checkLayout verifies the flat representation: body ids strictly
// ascending with one count each, and the pending run holding leaves
// only, none of which the body also stores (the body and the run must
// agree on Size), each found at its own position by a sound index.
func (d *Digest) checkLayout() error {
	if len(d.ids) != len(d.counts) {
		return fmt.Errorf("body holds %d ids but %d counts", len(d.ids), len(d.counts))
	}
	for i := 1; i < len(d.ids); i++ {
		if d.ids[i-1] >= d.ids[i] {
			return fmt.Errorf("body ids not strictly ascending at %d", i)
		}
	}
	if err := d.pend.Check(); err != nil {
		return err
	}
	if len(d.pendIDs) != len(d.pendCounts) || d.pend.Len() != len(d.pendIDs) {
		return fmt.Errorf("pending run of %d ids and %d counts, indexed %d", len(d.pendIDs), len(d.pendCounts), d.pend.Len())
	}
	for i, k := range d.pendIDs {
		if level(k) != d.logU {
			return fmt.Errorf("pending node %d is not a leaf", k)
		}
		if _, ok := slices.BinarySearch(d.ids, k); ok {
			return fmt.Errorf("leaf %d is both pending and in the body", k)
		}
		if p := d.pend.Find(k); p != int32(i) {
			return fmt.Errorf("pending leaf %d at %d is indexed at %d", k, i, p)
		}
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
	for i, k := range d.pendIDs {
		if err := check(k, d.pendCounts[i]); err != nil {
			return err
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
// into the borrowed merge target, which once the frame is validated
// becomes the body as mergeBody's does, and keep settles the storage:
// a pooled decode target allocates nothing in steady state and a
// rejected frame leaves the receiver untouched.
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
	rs := lender.Get()
	defer lender.Put(rs)
	rs.ids, rs.counts = slices.Grow(rs.ids[:0], m), slices.Grow(rs.counts[:0], m)
	ids, counts := rs.ids[:m], rs.counts[:m]
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
	d.ids, d.counts, rs.ids, rs.counts = ids, counts, d.ids[:0], d.counts[:0]
	d.keep(rs)
	d.clearPending()
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
