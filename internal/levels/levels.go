// Package levels is the logarithmic block hierarchy of PODS'12 §3.3,
// written once for the two summaries built on it: the randomized
// quantile summary (internal/randquant, float64 keys) and the
// ε-approximation for range counting (internal/epsapprox, 32-bit Morton
// keys with the points beside them as payload).
//
// A Stack is a partial run of unsorted elements and a binary counter of
// full sorted blocks. A full partial is sorted into a block (Promote)
// and carried up: while the level is taken, the two blocks of equal
// weight are halved into one of twice the weight, as in binary
// addition. Merging another stack carries each of its blocks in from
// the top level down. The instances differ only in their sort, how an
// element travels on the wire, and what they do with the partial.
//
// A summary keeps only its state: a call borrows its sort run and
// retired block storage (Runs) from the instance's core.Pool and hands
// them back before it returns.
package levels

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// Key orders a block.
type Key interface{ ~float64 | ~uint32 }

// MaxLevels bounds the hierarchy: an element at level i weighs 2^i,
// and weights are uint64.
const MaxLevels = 64

// Run is a run of elements: their keys and, in step with them, their
// payload. An instance without a payload uses struct{} for P and never
// allocates or touches Pay. An empty level is the zero Run.
type Run[K Key, P any] struct {
	Keys []K
	Pay  []P
}

// hasPay reports whether P carries anything; it folds to a constant in
// each instantiation.
func hasPay[P any]() bool {
	var p P
	return unsafe.Sizeof(p) != 0
}

// Stack is the hierarchy. The zero value holds nothing; an instance
// sets S and RNG before use.
type Stack[K Key, P any] struct {
	S       int         // elements per block
	Ell     int         // the partial's level: its elements weigh 2^Ell, and no block sits below it
	N       uint64      // the weight the stack stands for
	Partial Run[K, P]   // fewer than S elements, unsorted
	Blocks  []Run[K, P] // Blocks[i]: empty, or S elements sorted by key, each weighing 2^i
	RNG     *gen.RNG    // draws each halving's offset
}

// Runs is the scratch a call borrows. Free holds block storage nothing
// references any more: a carry retires two blocks for the one it makes,
// and a decode or a reset retires all of a stack's, so stacks that
// merge or decode in a loop stop allocating blocks once it has filled.
type Runs[K Key, P any] struct {
	Free    []Run[K, P]
	Scratch []uint64  // an instance's sort run
	Sorted  Run[K, P] // a query's copy of the partial in key order
}

// block returns storage for a block of n elements: recycled from the
// free list when a run there fits it (core.Fits), new otherwise.
func (rs *Runs[K, P]) block(n int) Run[K, P] {
	for i := len(rs.Free) - 1; i >= 0; i-- {
		if b := rs.Free[i]; core.Fits(b.room(), n, n) {
			last := len(rs.Free) - 1
			rs.Free[i], rs.Free[last] = rs.Free[last], Run[K, P]{}
			rs.Free = rs.Free[:last]
			return b.head(n)
		}
	}
	b := Run[K, P]{Keys: make([]K, n)}
	if hasPay[P]() {
		b.Pay = make([]P, n)
	}
	return b
}

// Retire recycles block storage nothing references any more.
func (rs *Runs[K, P]) Retire(b Run[K, P]) {
	if b.Keys != nil && len(rs.Free) < core.MaxFree {
		rs.Free = append(rs.Free, b)
	}
}

// room is how many elements r's storage holds. Its keys and payload
// need not be of one capacity: a run cloned or grown by append has
// each rounded up to its own allocation size class.
func (r Run[K, P]) room() int {
	if hasPay[P]() {
		return min(cap(r.Keys), cap(r.Pay))
	}
	return cap(r.Keys)
}

// head returns the first n elements of r's storage.
func (r Run[K, P]) head(n int) Run[K, P] {
	r.Keys = r.Keys[:n]
	if hasPay[P]() {
		r.Pay = r.Pay[:n]
	}
	return r
}

// Add appends one element.
func (r *Run[K, P]) Add(k K, p P) {
	r.Keys = append(r.Keys, k)
	if hasPay[P]() {
		r.Pay = append(r.Pay, p)
	}
}

// Size returns the number of stored elements.
func (st *Stack[K, P]) Size() int {
	total := len(st.Partial.Keys)
	for _, b := range st.Blocks {
		total += len(b.Keys)
	}
	return total
}

// Levels returns the number of levels in the hierarchy: the index of
// the highest occupied block + 1, or 0.
func (st *Stack[K, P]) Levels() int {
	top := 0
	for i, b := range st.Blocks {
		if b.Keys != nil {
			top = i + 1
		}
	}
	return top
}

// StoredWeight returns the total weight of the stored elements.
func (st *Stack[K, P]) StoredWeight() uint64 {
	w, _ := st.weight()
	return w
}

// weight is StoredWeight, and whether it fits a uint64. Every level,
// Ell included, must be below MaxLevels.
func (st *Stack[K, P]) weight() (uint64, bool) {
	over, w := bits.Mul64(uint64(len(st.Partial.Keys)), 1<<uint(st.Ell))
	for i, b := range st.Blocks {
		hi, lo := bits.Mul64(uint64(len(b.Keys)), 1<<uint(i))
		var carry uint64
		w, carry = bits.Add64(w, lo, 0)
		over |= hi | carry
	}
	return w, over == 0
}

// Rank returns the stored weight of the elements whose key is at most
// k: each block's by binary search, the partial's by a scan.
func (st *Stack[K, P]) Rank(k K) uint64 {
	r := st.blockRank(k)
	for _, x := range st.Partial.Keys {
		if x <= k {
			r += 1 << uint(st.Ell)
		}
	}
	return r
}

// blockRank is the weight of the blocks' elements whose key is at
// most k.
func (st *Stack[K, P]) blockRank(k K) uint64 {
	var r uint64
	for i, b := range st.Blocks {
		r += uint64(upper(b.Keys, k)) << uint(i)
	}
	return r
}

// upper returns how many of a sorted run's keys are at most k: the
// index of the first key above k. A NaN k is above no key.
func upper[K Key](keys []K, k K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] > k {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Select returns the smallest stored key whose rank — the weight of
// the elements at or below it, as Rank counts it — reaches need, or
// the largest stored key when none does. The stack must hold an
// element. Rank grows along a sorted run, so each run's first element
// that qualifies is found by binary search; and the answer lies above
// every element seen to fall short and at or below the best candidate
// so far, so each run is searched only between those two. The top
// block, which spans the stored range, goes first: after it, a lower
// block has about one element left to try. For the call the partial is
// sorted into rs.Sorted by sort, the instance's Promote sort; the
// partial itself is only read.
func (st *Stack[K, P]) Select(rs *Runs[K, P], need uint64, sort func(dst, src Run[K, P], scratch *[]uint64)) K {
	rs.Sorted.Keys = codec.Resize(rs.Sorted.Keys, len(st.Partial.Keys))
	if hasPay[P]() {
		rs.Sorted.Pay = codec.Resize(rs.Sorted.Pay, len(st.Partial.Keys))
	}
	sort(rs.Sorted, st.Partial, &rs.Scratch)
	part := rs.Sorted.Keys
	var short, best, top K // short falls short of need; best reaches it
	haveShort, found, seen := false, false, false
	for i := len(st.Blocks) - 1; i >= -1; i-- {
		keys := part
		if i >= 0 {
			keys = st.Blocks[i].Keys
		}
		if len(keys) == 0 {
			continue
		}
		if last := keys[len(keys)-1]; !seen || last > top {
			top, seen = last, true
		}
		lo, hi := 0, len(keys)
		if haveShort {
			lo = upper(keys, short)
		}
		if found {
			hi = upper(keys, best)
		}
		a, b := lo, hi
		for a < b {
			m := int(uint(a+b) >> 1)
			if st.blockRank(keys[m])+uint64(upper(part, keys[m]))<<uint(st.Ell) >= need {
				b = m
			} else {
				a = m + 1
			}
		}
		if a < hi {
			best, found = keys[a], true
		}
		if a > lo {
			short, haveShort = keys[a-1], true
		}
	}
	if !found {
		return top
	}
	return best
}

// Promote turns the first S elements of the partial into a block at
// level Ell — sort fills dst with src's elements in key order, using
// scratch as it likes — and carries it.
func (st *Stack[K, P]) Promote(rs *Runs[K, P], sort func(dst, src Run[K, P], scratch *[]uint64)) {
	b := rs.block(st.S)
	sort(b, st.Partial.head(st.S), &rs.Scratch)
	p := &st.Partial
	p.Keys = append(p.Keys[:0], p.Keys[st.S:]...)
	if hasPay[P]() {
		p.Pay = append(p.Pay[:0], p.Pay[st.S:]...)
	}
	st.carry(rs, b, st.Ell, true)
}

// Absorb adds other's weight to st and carries each of other's blocks
// at level from and up into st, from the top level down. other is only
// read: its blocks are halved where they lie, and copied only into a
// free level. What other holds below from, and its partial, are the
// caller's to fold in.
func (st *Stack[K, P]) Absorb(rs *Runs[K, P], other *Stack[K, P], from int) {
	st.N += other.N
	for i := len(other.Blocks) - 1; i >= from; i-- {
		if b := other.Blocks[i]; b.Keys != nil {
			st.carry(rs, b, i, false)
		}
	}
}

// carry places b at level i, halving it with the occupant and moving
// up while the level is taken. An owned b is the stack's to keep or
// recycle; a borrowed one (another stack's block) is only read.
func (st *Stack[K, P]) carry(rs *Runs[K, P], b Run[K, P], i int, owned bool) {
	for {
		for len(st.Blocks) <= i {
			st.Blocks = append(st.Blocks, Run[K, P]{})
		}
		occ := st.Blocks[i]
		if occ.Keys == nil {
			if !owned {
				c := rs.block(len(b.Keys))
				copy(c.Keys, b.Keys)
				copy(c.Pay, b.Pay)
				b = c
			}
			st.Blocks[i] = b
			return
		}
		st.Blocks[i] = Run[K, P]{}
		out := st.halve(rs, occ, b)
		rs.Retire(occ)
		if owned {
			rs.Retire(b)
		}
		b, owned = out, true
		i++
	}
}

// halve is the equal-weight merge (PODS'12 §3.2): it merges two sorted
// blocks by key, ties to a, and keeps alternate elements of the union
// from a random offset, into recycled storage; the inputs are only read.
//
// No branch depends on the keys: one there mispredicts on about every
// other element of a block the predictor has never seen. The output is
// sized once, and the loop writes every element it takes to out[w],
// moving w on only for a kept one (while both operands have elements
// another one follows, so w stays in range); the operand is picked by
// indexing a pair with the comparison's 0 or 1, which compiles to a
// load for a float key or a payload, where an if would branch. The one
// tail left is copied every other element.
func (st *Stack[K, P]) halve(rs *Runs[K, P], a, b Run[K, P]) Run[K, P] {
	keep := 1
	if st.RNG.Bool() {
		keep = 0
	}
	out := rs.block((len(a.Keys) + len(b.Keys) + keep) / 2)
	ai, bi, w := 0, 0, 0
	for ai < len(a.Keys) && bi < len(b.Keys) {
		ka, kb := a.Keys[ai], b.Keys[bi]
		fromA := 0
		if ka <= kb {
			fromA = 1 // a SETcc, not a branch
		}
		out.Keys[w] = [2]K{kb, ka}[fromA&1]
		if hasPay[P]() {
			out.Pay[w] = [2]P{b.Pay[bi], a.Pay[ai]}[fromA&1]
		}
		w += keep
		keep ^= 1
		ai += fromA
		bi += 1 - fromA
	}
	tail, at := a, ai // at most one tail is left
	if bi < len(b.Keys) {
		tail, at = b, bi
	}
	for j := at + 1 - keep; j < len(tail.Keys); j += 2 {
		out.Keys[w] = tail.Keys[j]
		if hasPay[P]() {
			out.Pay[w] = tail.Pay[j]
		}
		w++
	}
	return out
}

// Reset empties the stack, retiring its blocks into rs; the partial
// keeps its storage, the level table its length's capacity.
func (st *Stack[K, P]) Reset(rs *Runs[K, P]) {
	st.N, st.Ell = 0, 0
	st.Partial = st.Partial.head(0)
	for _, b := range st.Blocks {
		rs.Retire(b)
	}
	clear(st.Blocks)
	st.Blocks = st.Blocks[:0]
}

// Clone returns a deep copy of st sharing nothing with it, whose RNG
// is seeded from st's next draw: the two diverge on later random
// choices, still deterministically.
func (st *Stack[K, P]) Clone() Stack[K, P] {
	c := *st
	c.RNG = gen.NewRNG(st.RNG.Uint64())
	c.Partial = st.Partial.clone()
	c.Blocks = make([]Run[K, P], len(st.Blocks))
	for i, b := range st.Blocks {
		if b.Keys != nil {
			c.Blocks[i] = b.clone()
		}
	}
	return c
}

func (r Run[K, P]) clone() Run[K, P] {
	return Run[K, P]{slices.Clone(r.Keys), slices.Clone(r.Pay)}
}

// Check reports the first way st is not a hierarchy: a partial of S or
// more; Ell or the level table at or past MaxLevels; a block below Ell,
// or of other than S elements; a payload out of step with its keys; a
// NaN key, which a `>` order test cannot see (every comparison with a
// NaN is false), so a decoded NaN would pass as sorted; a block out of
// key order; and, while Ell is 0 and every element weighs exactly what
// it stands for, a stored weight that overflows or is not N.
func (st *Stack[K, P]) Check() error {
	if len(st.Partial.Keys) >= st.S {
		return fmt.Errorf("partial of %d, block size %d", len(st.Partial.Keys), st.S)
	}
	if st.Ell >= MaxLevels || len(st.Blocks) > MaxLevels {
		return fmt.Errorf("partial at level %d, %d levels: at most %d", st.Ell, len(st.Blocks), MaxLevels)
	}
	if err := st.Partial.check(false); err != nil {
		return fmt.Errorf("partial: %w", err)
	}
	for i, b := range st.Blocks {
		if b.Keys == nil {
			continue
		}
		if i < st.Ell {
			return fmt.Errorf("block at level %d below the partial's %d", i, st.Ell)
		}
		if len(b.Keys) != st.S {
			return fmt.Errorf("block %d has %d elements, want %d", i, len(b.Keys), st.S)
		}
		if err := b.check(true); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
	}
	if st.Ell == 0 {
		if w, ok := st.weight(); !ok || w != st.N {
			return fmt.Errorf("stored weight %d (fits: %v) != n %d", w, ok, st.N)
		}
	}
	return nil
}

// check reports a payload out of step with the keys, a NaN key, or,
// when sorted is asked for, keys out of order. In a sorted run one test
// per pair finds both faults, since !(a <= b) holds when a > b and when
// either is a NaN; a lone key needs its own NaN test.
func (r Run[K, P]) check(sorted bool) error {
	if hasPay[P]() && len(r.Pay) != len(r.Keys) {
		return fmt.Errorf("%d keys but %d payloads", len(r.Keys), len(r.Pay))
	}
	if sorted && len(r.Keys) > 1 {
		for j := 1; j < len(r.Keys); j++ {
			if !(r.Keys[j-1] <= r.Keys[j]) {
				return errors.New("keys out of order, or a NaN key")
			}
		}
		return nil
	}
	for _, k := range r.Keys {
		if k != k {
			return errors.New("NaN key")
		}
	}
	return nil
}

// Encode appends N, the RNG state (a decoded copy resumes the same
// stream) and the level table: the partial's length and elements, the
// number of levels, and each level's length and elements, an empty
// level being length 0. put writes a run's elements, width bytes each.
func (st *Stack[K, P]) Encode(w *codec.Buffer, width int, put func(*codec.Buffer, Run[K, P])) {
	w.Grow(10*(4+len(st.Blocks)) + width*st.Size())
	w.Uint64(st.N)
	w.Uint64(st.RNG.State())
	w.Int(len(st.Partial.Keys))
	put(w, st.Partial)
	w.Int(len(st.Blocks))
	for _, b := range st.Blocks {
		w.Int(len(b.Keys))
		put(w, b)
	}
}

// Decode reads what Encode wrote into st, whose S and Ell the caller
// has set from the frame's header and checked, and which may be in any
// state: it first retires every block st holds, then reads the partial
// into st's own storage and each block into recycled storage. get
// fills a run from its len(run) elements' bytes, width bytes each;
// valid is the instance's law check, which includes Check and so
// refuses any run of the wrong length. Every count is checked against
// the bytes left before anything is sized by it.
//
// The one failure rule: whatever stops a decode short leaves st empty
// (N, Ell and the partial zero, no blocks), with S as the frame said.
func (st *Stack[K, P]) Decode(rs *Runs[K, P], r *codec.Reader, width int, get func([]byte, Run[K, P]), valid func() error) (err error) {
	defer func() {
		if err != nil {
			st.Reset(rs)
		}
	}()
	ell := st.Ell
	st.Reset(rs)
	st.Ell, st.N = ell, r.Uint64()
	seed := r.Uint64()
	if st.RNG == nil {
		st.RNG = new(gen.RNG)
	}
	*st.RNG = *gen.NewRNG(seed)
	// A failed read leaves r failing: every later count reads 0, and
	// Finish reports the first error.
	read := func(dst Run[K, P]) Run[K, P] {
		if b := r.Borrow(width * len(dst.Keys)); b != nil {
			get(b, dst)
		}
		return dst
	}
	np := r.ArrayLen(width)
	st.Partial.Keys = codec.Resize(st.Partial.Keys, np)
	if hasPay[P]() {
		st.Partial.Pay = codec.Resize(st.Partial.Pay, np)
	}
	read(st.Partial)
	// A frame may not claim a level table larger than any valid
	// stack's before sending a single element for it.
	nb := r.ArrayLen(1)
	if nb > MaxLevels {
		return fmt.Errorf("%d levels, at most %d", nb, MaxLevels)
	}
	for range nb {
		var b Run[K, P]
		if bl := r.ArrayLen(width); bl > 0 {
			b = read(rs.block(bl))
		}
		st.Blocks = append(st.Blocks, b)
	}
	if err := r.Finish(); err != nil {
		return err
	}
	return valid()
}
