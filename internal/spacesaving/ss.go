// Package spacesaving implements the SpaceSaving heavy-hitter summary
// of Metwally, Agrawal and El Abbadi with the "stream-summary" bucket
// structure (worst-case O(1) unit updates), plus its merge operations.
//
// A Summary with k counters processing a stream of total weight n
// guarantees, for every item x with true frequency f(x):
//
//	f(x) ≤ Estimate(x).Value + under   and   Estimate(x).Value − eps(x) ≤ f(x)
//
// where eps(x) is the per-counter overestimation certificate and
// `under` accumulates only through merges (a fresh summary never
// undercounts). The minimum counter is at most n/k.
//
// PODS'12 (Agarwal et al.) proves SpaceSaving is isomorphic to
// Misra–Gries — subtracting the minimum counter from a full SpaceSaving
// summary with k counters yields exactly the MG summary with k−1
// counters — and is therefore mergeable with the same guarantees. Both
// the PODS'12 merge (via the isomorphism) and the low-total-error merge
// (Algorithm 3 of the supplied follow-up text) are provided.
//
// The stream-summary structure is stored flat, in structure-of-arrays
// layout: items, counts and the eps certificates are three views of a
// single contiguous backing slice, entries and buckets link to each
// other by int32 index instead of pointer, and the item lookup is a
// core.Index over the dense slot space — the cache-conscious
// frequent-items layout of Anderson et al. (see PAPERS.md). The update algorithm itself is the classic one; only the
// memory it walks changed.
package spacesaving

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// nilIdx is the index-space null for entry and bucket links.
const nilIdx = int32(-1)

// Summary is a SpaceSaving summary. The zero value is not usable; use
// New. Summaries are not safe for concurrent use.
//
// Entries live in dense slots [0, live): items, counts and eps are
// equal-length views of one backing allocation, and ebkt/eprev/enext
// carry the stream-summary links (bucket membership and FIFO order
// within the bucket). Eviction reuses the victim's slot, so the slot
// space never fragments. Buckets are a parallel set of arrays linked
// ascending by count through bprev/bnext and recycled through a free
// list.
type Summary struct {
	k     int
	n     uint64
	under uint64 // accumulated possible undercount, from merge minima subtractions and prunes

	items  []uint64
	counts []uint64
	eps    []uint64 // overestimation certificate: count − f(item) <= eps (+merge terms)
	ebkt   []int32
	eprev  []int32
	enext  []int32
	live   int

	bcnt  []uint64
	bhead []int32 // eviction order: head is the oldest entry
	btail []int32
	bprev []int32
	bnext []int32
	bfree []int32
	minB  int32 // ascending bucket list
	maxB  int32

	// index maps each monitored item to its entry slot.
	index core.Index
}

// runs is the scratch a call borrows from lender and hands back once
// rebuild has copied out what it built: the summary keeps only its
// state. states and spare are state lists (a decoded frame, a merge's
// operands and result, an encode's frame order); keys sort them; idx
// indexes a merge's combined states.
type runs struct {
	states, spare []CounterState
	keys          []uint64
	idx           core.Index
}

var lender core.Pool[runs]

// New returns an empty summary with capacity k >= 1 counters. The
// entry arrays are allocated eagerly up to a cap and grow on demand,
// so very large k does not commit memory before items arrive.
func New(k int) *Summary {
	if k < 1 {
		panic("spacesaving: k must be >= 1")
	}
	occ := k
	if occ > 1<<12 {
		occ = 1 << 12
	}
	return newSized(k, occ)
}

// newSized returns a summary whose entry arrays hold occ monitored
// items before growing.
func newSized(k, occ int) *Summary {
	s := &Summary{k: k, minB: nilIdx, maxB: nilIdx}
	s.growTo(entryCap(k, occ))
	return s
}

// entryCap is the entry capacity a summary with k counters starts
// with when it is about to hold occ of them.
func entryCap(k, occ int) int {
	if occ < 16 {
		occ = 16
	}
	if occ > k {
		occ = k
	}
	return occ
}

// growTo reallocates the entry arrays for cap monitored items,
// preserving contents, and makes room in the index for as many items.
func (s *Summary) growTo(cap int) {
	ubuf := make([]uint64, 4*cap)
	lbuf := make([]int32, 8*cap)
	copy(ubuf[0*cap:], s.items)
	copy(ubuf[1*cap:], s.counts)
	copy(ubuf[2*cap:], s.eps)
	copy(lbuf[0*cap:], s.ebkt)
	copy(lbuf[1*cap:], s.eprev)
	copy(lbuf[2*cap:], s.enext)
	s.items = ubuf[0*cap : 1*cap : 1*cap]
	s.counts = ubuf[1*cap : 2*cap : 2*cap]
	s.eps = ubuf[2*cap : 3*cap : 3*cap]
	s.ebkt = lbuf[0*cap : 1*cap : 1*cap]
	s.eprev = lbuf[1*cap : 2*cap : 2*cap]
	s.enext = lbuf[2*cap : 3*cap : 3*cap]
	// A bucket slot is only ever added when the free list is empty, so
	// there are never more of them than monitored entries: the bucket
	// arrays share the two allocations at capacity cap, and a summary
	// fed its first k items allocates nothing beyond what New did.
	s.bcnt = append(ubuf[3*cap:3*cap:4*cap], s.bcnt...)
	s.bhead = append(lbuf[3*cap:3*cap:4*cap], s.bhead...)
	s.btail = append(lbuf[4*cap:4*cap:5*cap], s.btail...)
	s.bprev = append(lbuf[5*cap:5*cap:6*cap], s.bprev...)
	s.bnext = append(lbuf[6*cap:6*cap:7*cap], s.bnext...)
	s.bfree = append(lbuf[7*cap:7*cap:8*cap], s.bfree...)

	s.index.Reserve(cap)
}

// growEntries doubles the entry capacity, bounded by k.
func (s *Summary) growEntries() {
	cap := len(s.items) * 2
	if cap > s.k {
		cap = s.k
	}
	s.growTo(cap)
}

// NewEpsilon returns a summary sized for overestimation at most eps*n,
// i.e. k = ceil(1/eps) counters.
func NewEpsilon(eps float64) *Summary {
	if eps <= 0 || eps >= 1 {
		panic("spacesaving: eps must be in (0, 1)")
	}
	k := int(1/eps + 0.9999999)
	if k < 1 {
		k = 1
	}
	return New(k)
}

// K returns the counter capacity.
func (s *Summary) K() int { return s.k }

// N returns the total weight summarized, including merged-in weight.
func (s *Summary) N() uint64 { return s.n }

// Len returns the number of monitored items (<= K).
func (s *Summary) Len() int { return s.live }

// UnderBound returns the accumulated possible undercount: for every
// item, f(x) <= Estimate(x).Value + UnderBound() holds for monitored
// items, and f(x) <= MinCount() + UnderBound() for unmonitored ones.
// It is zero for a summary that has never been merged.
func (s *Summary) UnderBound() uint64 { return s.under }

// MinCount returns the smallest monitored count (0 when empty).
func (s *Summary) MinCount() uint64 {
	if s.minB == nilIdx {
		return 0
	}
	return s.bcnt[s.minB]
}

// Update adds w >= 1 occurrences of x. Unit-weight updates are O(1);
// weight-w updates cost O(buckets skipped).
func (s *Summary) Update(x core.Item, w uint64) {
	if w == 0 {
		panic("spacesaving: zero-weight update")
	}
	s.update(x, w)
	debugAssertSampled(s)
}

// update is Update without the zero-weight check, shared with the
// batch path.
func (s *Summary) update(x core.Item, w uint64) {
	s.n += w
	key := uint64(x)
	i, e := s.index.Slot(key)
	if e != nilIdx {
		s.increase(e, w)
		return
	}
	if s.live < s.k {
		if s.live == len(s.items) {
			s.growEntries()
			i, _ = s.index.Slot(key)
		}
		e := int32(s.live)
		s.live++
		s.items[e] = key
		s.counts[e] = w
		s.eps[e] = 0
		s.index.Put(i, key, e) // the index has room for every entry slot
		s.placeFrom(s.minB, e, w)
		return
	}
	// Evict the oldest entry of the minimum bucket: the incoming item
	// inherits its count as the classic SpaceSaving overestimate. The
	// victim's dense slot is reused in place.
	vb := s.minB
	victim := s.bhead[vb]
	minCount := s.bcnt[vb]
	s.unlink(victim)
	s.index.Delete(s.items[victim])
	s.items[victim] = key
	s.counts[victim] = minCount + w
	s.eps[victim] = minCount
	i, _ = s.index.Slot(key) // the delete may have moved key's empty slot
	s.index.Put(i, key, victim)
	s.placeFrom(s.minB, victim, minCount+w)
}

// increase moves e forward by w.
func (s *Summary) increase(e int32, w uint64) {
	start := s.ebkt[e]
	cnt := s.counts[e] + w
	s.counts[e] = cnt
	s.unlinkKeepBucket(e, start)
	from := start
	if s.bhead[start] == nilIdx { // bucket emptied; start search from neighbours
		from = s.removeEmptyBucket(start)
	}
	s.placeFrom(from, e, cnt)
}

// placeFrom inserts e (with count cnt) into the bucket with that
// count, searching forward from the hint bucket (which must not be
// preceded by any bucket with count < cnt; nilIdx searches from the
// minimum).
func (s *Summary) placeFrom(hint, e int32, cnt uint64) {
	b := hint
	if b == nilIdx {
		b = s.minB
	}
	after := nilIdx // last bucket with count < cnt
	for b != nilIdx && s.bcnt[b] < cnt {
		after = b
		b = s.bnext[b]
	}
	if b != nilIdx && s.bcnt[b] == cnt {
		s.appendEntry(b, e)
		return
	}
	// Insert a new bucket between after and b.
	nb := s.allocBucket(cnt)
	s.bprev[nb] = after
	s.bnext[nb] = b
	if after != nilIdx {
		s.bnext[after] = nb
	} else {
		s.minB = nb
	}
	if b != nilIdx {
		s.bprev[b] = nb
	} else {
		s.maxB = nb
	}
	s.appendEntry(nb, e)
}

// allocBucket takes a bucket slot from the free list, or extends the
// bucket arrays.
func (s *Summary) allocBucket(count uint64) int32 {
	if n := len(s.bfree); n > 0 {
		b := s.bfree[n-1]
		s.bfree = s.bfree[:n-1]
		s.bcnt[b] = count
		s.bhead[b], s.btail[b] = nilIdx, nilIdx
		return b
	}
	b := int32(len(s.bcnt))
	s.bcnt = append(s.bcnt, count)
	s.bhead = append(s.bhead, nilIdx)
	s.btail = append(s.btail, nilIdx)
	s.bprev = append(s.bprev, nilIdx)
	s.bnext = append(s.bnext, nilIdx)
	return b
}

func (s *Summary) appendEntry(b, e int32) {
	t := s.btail[b]
	s.ebkt[e] = b
	s.eprev[e] = t
	s.enext[e] = nilIdx
	if t != nilIdx {
		s.enext[t] = e
	} else {
		s.bhead[b] = e
	}
	s.btail[b] = e
}

// unlink removes e from its bucket and drops the bucket if emptied.
func (s *Summary) unlink(e int32) {
	b := s.ebkt[e]
	s.unlinkKeepBucket(e, b)
	if s.bhead[b] == nilIdx {
		s.removeEmptyBucket(b)
	}
}

func (s *Summary) unlinkKeepBucket(e, b int32) {
	p, nx := s.eprev[e], s.enext[e]
	if p != nilIdx {
		s.enext[p] = nx
	} else {
		s.bhead[b] = nx
	}
	if nx != nilIdx {
		s.eprev[nx] = p
	} else {
		s.btail[b] = p
	}
	s.eprev[e], s.enext[e], s.ebkt[e] = nilIdx, nilIdx, nilIdx
}

// removeEmptyBucket unlinks b, recycles its slot, and returns its
// predecessor (the new search hint), which may be nilIdx.
func (s *Summary) removeEmptyBucket(b int32) int32 {
	p, nx := s.bprev[b], s.bnext[b]
	if p != nilIdx {
		s.bnext[p] = nx
	} else {
		s.minB = nx
	}
	if nx != nilIdx {
		s.bprev[nx] = p
	} else {
		s.maxB = p
	}
	s.bfree = append(s.bfree, b)
	return p
}

// Estimate answers a point query. For monitored items the interval is
// [count−eps, count+under]; for unmonitored items [0, min+under].
func (s *Summary) Estimate(x core.Item) core.Estimate {
	if e := s.index.Find(uint64(x)); e != nilIdx {
		cnt, ep := s.counts[e], s.eps[e]
		lo := uint64(0)
		if cnt > ep {
			lo = cnt - ep
		}
		return core.Estimate{Value: cnt, Lower: lo, Upper: cnt + s.under}
	}
	return core.Estimate{Value: 0, Lower: 0, Upper: s.MinCount() + s.under}
}

// Counters returns the monitored (item, count) pairs in ascending count
// order (ties by item).
func (s *Summary) Counters() []core.Counter {
	out := make([]core.Counter, 0, s.live)
	for e := 0; e < s.live; e++ {
		out = append(out, core.Counter{Item: core.Item(s.items[e]), Count: s.counts[e]})
	}
	core.SortCountersAsc(out, nil)
	return out
}

// CounterState is a Counter extended with the per-counter
// overestimation certificate; the interchange format for merges and
// the codec.
type CounterState struct {
	Item  core.Item
	Count uint64
	Eps   uint64
}

// States returns all counter states in ascending (count, item) order.
func (s *Summary) States() []CounterState {
	rs := lender.Get()
	defer lender.Put(rs)
	return s.appendStates(rs, make([]CounterState, 0, s.live))
}

// appendStates appends all counter states to dst, which must be
// empty, and sorts them ascending by (count, item) in rs.
func (s *Summary) appendStates(rs *runs, dst []CounterState) []CounterState {
	for e := 0; e < s.live; e++ {
		dst = append(dst, CounterState{Item: core.Item(s.items[e]), Count: s.counts[e], Eps: s.eps[e]})
	}
	rs.sort(dst)
	return dst
}

// sort sorts cs ascending by (count, item) as core.SortCountersAsc
// sorts counters, with 2·len(cs) words of rs.keys as its working
// memory.
func (rs *runs) sort(cs []CounterState) {
	n := len(cs)
	rs.keys = slices.Grow(rs.keys[:0], 2*n)[:2*n]
	keys := rs.keys[:n]
	for i, c := range cs {
		keys[i] = c.Count
	}
	core.CountOrder(keys, rs.keys[n:2*n])
	core.Permute(cs, keys)
	for i := 1; i < n; i++ {
		x := cs[i]
		j := i
		for ; j > 0 && core.CounterBefore(x.Count, x.Item, cs[j-1].Count, cs[j-1].Item); j-- {
			cs[j] = cs[j-1]
		}
		cs[j] = x
	}
}

// HeavyHitters returns every monitored item whose estimate interval
// can reach threshold (count+under >= threshold) in descending count
// order; by the SpaceSaving guarantee this includes every item with
// true frequency >= threshold provided threshold > MinCount()+under.
func (s *Summary) HeavyHitters(threshold uint64) []core.Counter {
	var out []core.Counter
	for e := 0; e < s.live; e++ {
		if s.counts[e]+s.under >= threshold {
			out = append(out, core.Counter{Item: core.Item(s.items[e]), Count: s.counts[e]})
		}
	}
	core.SortCountersDesc(out)
	return out
}

// Clone returns a deep copy.
func (s *Summary) Clone() *Summary {
	c := newSized(s.k, s.live)
	c.n = s.n
	c.under = s.under
	c.rebuild(s.States())
	return c
}

// Reset restores the summary to its freshly-constructed state, keeping
// its allocations.
func (s *Summary) Reset() {
	s.n = 0
	s.under = 0
	s.clearStructure()
}

// clearStructure empties the entry, bucket and index storage without
// shrinking it. n and under are left alone.
func (s *Summary) clearStructure() {
	s.live = 0
	s.minB, s.maxB = nilIdx, nilIdx
	s.bcnt = s.bcnt[:0]
	s.bhead = s.bhead[:0]
	s.btail = s.btail[:0]
	s.bprev = s.bprev[:0]
	s.bnext = s.bnext[:0]
	s.bfree = s.bfree[:0]
	s.index.Reset(len(s.items))
}

// rebuild replaces the structure contents with the given states, which
// must be sorted ascending and fit within k.
func (s *Summary) rebuild(states []CounterState) {
	s.clearStructure()
	if len(states) > len(s.items) {
		s.growTo(len(states))
	}
	hint := nilIdx
	for _, st := range states {
		e := int32(s.live)
		s.live++
		s.items[e] = uint64(st.Item)
		s.counts[e] = st.Count
		s.eps[e] = st.Eps
		s.index.Insert(uint64(st.Item), e)
		s.placeFrom(hint, e, st.Count)
		hint = s.ebkt[e]
	}
}

// FromStates reconstructs a summary from explicit counter states, in
// any order, used by tests replaying the paper's worked examples. The
// structure is sized for the given states (not k).
func FromStates(k int, n, under uint64, states []CounterState) (*Summary, error) {
	rs := lender.Get()
	defer lender.Put(rs)
	states = slices.Clone(states)
	rs.sort(states)
	s := &Summary{}
	if err := s.load(k, n, under, states); err != nil {
		return nil, err
	}
	return s, nil
}

// load replaces s — in any state, the zero value included — with the
// summary of the given header and counter states, which must be in
// the order MarshalBinary writes, strictly ascending by (count, item).
// The entry arrays are kept when they have room and otherwise sized
// for the states (not k), so decoding a frame allocates in proportion
// to its payload. It fails on k < 1, more than k states, a zero count,
// states out of order or a repeated item; s is untouched unless the
// failure is a repeated item, which leaves it empty.
func (s *Summary) load(k int, n, under uint64, states []CounterState) error {
	if k < 1 {
		return fmt.Errorf("spacesaving: k must be >= 1, have %d", k)
	}
	if len(states) > k {
		return fmt.Errorf("spacesaving: %d counters exceed k=%d", len(states), k)
	}
	var prev CounterState
	for i, st := range states {
		if st.Count == 0 {
			return fmt.Errorf("spacesaving: zero count for item %d", st.Item)
		}
		if i > 0 && !core.CounterBefore(prev.Count, prev.Item, st.Count, st.Item) {
			return fmt.Errorf("spacesaving: counter %d out of (count, item) order", i)
		}
		prev = st
	}
	s.k, s.n, s.under = k, n, under
	if c := entryCap(k, len(states)); len(s.items) < c {
		s.live = 0 // nothing to carry over
		s.growTo(c)
	}
	s.rebuild(states)
	// rebuild indexes every state; a repeated item shows as an entry
	// the index resolves to an earlier slot.
	for e := int32(0); e < int32(s.live); e++ {
		if s.index.Find(s.items[e]) != e {
			item := s.items[e]
			s.Reset()
			return fmt.Errorf("spacesaving: duplicate item %d", item)
		}
	}
	return nil
}

// checkInvariants validates the internal structure; used by tests.
func (s *Summary) checkInvariants() error {
	seen := 0
	prev := nilIdx
	for b := s.minB; b != nilIdx; b = s.bnext[b] {
		if s.bprev[b] != prev {
			return fmt.Errorf("bucket back-link broken at count %d", s.bcnt[b])
		}
		if prev != nilIdx && s.bcnt[prev] >= s.bcnt[b] {
			return fmt.Errorf("buckets not ascending: %d then %d", s.bcnt[prev], s.bcnt[b])
		}
		if s.bhead[b] == nilIdx {
			return fmt.Errorf("empty bucket with count %d", s.bcnt[b])
		}
		prevE := nilIdx
		for e := s.bhead[b]; e != nilIdx; e = s.enext[e] {
			if s.ebkt[e] != b {
				return fmt.Errorf("entry %d points to wrong bucket", s.items[e])
			}
			if s.eprev[e] != prevE {
				return fmt.Errorf("entry back-link broken at item %d", s.items[e])
			}
			if s.counts[e] != s.bcnt[b] {
				return fmt.Errorf("entry %d count %d in bucket %d", s.items[e], s.counts[e], s.bcnt[b])
			}
			if int(e) >= s.live {
				return fmt.Errorf("entry slot %d beyond live=%d", e, s.live)
			}
			if s.index.Find(s.items[e]) != e {
				return fmt.Errorf("hash does not resolve item %d to slot %d", s.items[e], e)
			}
			seen++
			prevE = e
		}
		if s.btail[b] != prevE {
			return fmt.Errorf("bucket tail wrong at count %d", s.bcnt[b])
		}
		prev = b
	}
	if s.maxB != prev {
		return fmt.Errorf("maxB wrong")
	}
	if seen != s.live {
		return fmt.Errorf("bucket entries %d != live %d", seen, s.live)
	}
	if err := s.index.Check(); err != nil {
		return err
	}
	if s.index.Len() != s.live {
		return fmt.Errorf("index holds %d items, live %d", s.index.Len(), s.live)
	}
	if s.live > s.k {
		return fmt.Errorf("size %d exceeds k=%d", s.live, s.k)
	}
	return nil
}

var _ core.CounterSummary = (*Summary)(nil)
