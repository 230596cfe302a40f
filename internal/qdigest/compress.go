package qdigest

import (
	"cmp"
	"slices"
)

// Compress restores the q-digest property, merging under-full sibling
// pairs into their parents bottom-up. It leaves every node in the body:
// the pending run is empty afterwards. On a digest nothing has
// touched since the last Compress it returns at once.
//
// The first pass sweeps the whole body (compressPass). It is the only
// pass an edge batch or a merge into a grown accumulator needs; a young
// slot absorbing edge frames needs more about one merge in four (over
// the 3,648 merges of three merge_heavy rounds, 2,794 took one pass,
// 404 two, 260 three, 121 four and 119 five to ten). A pass can leave
// the property broken only under the nodes it folded while they were
// holding their children up, and each pass names those nodes, so every
// later pass (repass) visits only their children and the chains of
// ancestors the folds there change.
func (d *Digest) Compress() {
	if d.clean {
		return
	}
	rs := lender.Get()
	d.compress(rs)
	lender.Put(rs)
}

// compress is Compress on a digest that is not clean, in runs the
// caller borrowed.
func (d *Digest) compress(rs *runs) {
	d.dirty = 0
	d.flush(rs)
	if t := d.n / d.k; t != 0 {
		var re [2 * reCap]uint64
		for r := d.compressPass(rs, t, &re); r != 0; {
			if r > reCap {
				r = d.compressPass(rs, t, &re)
			} else {
				r = d.repass(t, &re, r)
			}
		}
	}
	d.base = len(d.ids)
	d.clean = true
}

// reCap is the most folds a pass lists for the next one to visit; a
// pass that lists more is followed by a whole sweep. The list has twice
// the room and is indexed modulo its length, so the sweep writes an
// entry for every group and keeps it only if it counts: past reCap
// entries wrap around, and are not read.
const reCap = 64

// propped marks, in a level run, a node whose children survived this
// pass only because of its count: without it their pair is within the
// threshold. Node ids stay below 2^63, so the bit is free.
const propped = 1 << 63

// bit is 1 for true and 0 for false; it compiles to a SETcc.
func bit(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// compressPass runs one bottom-up sweep over the whole body, a level at
// a time from the leaves up. A level's run — its nodes ascending, read
// from the top — is joined two-pointer with the body's next level up
// to build that level's run in turn, top down in a scratch buffer. The
// leaves' run is the body's tail itself; every other run is the body's
// nodes of the level plus the parents the level below created or kept.
// Survivors are written back into the body's consumed tail.
//
// A group is a node and, when the run's next node is its left sibling,
// that sibling too. Its three data-dependent decisions — sibling
// present, fold or keep, parent present — are computed as 0/1 words
// that move the cursors (the run by 1+si, the next run by fold|hp, the
// survivors by (1-fold)·(1+si)) under writes that happen every time: a
// branch per decision mispredicts on nearly every group of an input the
// predictor has not seen. The speculative writes never land on an
// unread node: the survivors' cursor w starts at the leaves' read
// cursor and a fold removes at least one node per parent it creates, so
// w stays at least the group's size above every read cursor in the
// body. The scratch buffers hold one slot more than the body, for the
// next run's speculative entry.
//
// When the sweep ends, every node left was examined with its sibling
// and parent and found over the threshold, with its own and its
// sibling's final counts. Only the parent's count can have changed
// since — to zero, by the parent being folded upward one level later —
// so the q-digest property can fail only under a propped node that was
// folded, and does fail there. The parents of those folds are listed in
// re (up to reCap of them) and the pass returns how many there were: 0
// means the fixpoint is reached without a sweep to verify it.
func (d *Digest) compressPass(rs *runs, t uint64, re *[2 * reCap]uint64) int {
	ids, counts := d.ids, d.counts
	n := len(ids)
	nxtI, nxtC := slices.Grow(rs.w[0][:0], n+1)[:n+1], slices.Grow(rs.w[1][:0], n+1)[:n+1]
	othI, othC := slices.Grow(rs.w[2][:0], n+1)[:n+1], slices.Grow(rs.w[3][:0], n+1)[:n+1]
	p, _ := slices.BinarySearch(ids, 1<<d.logU) // ids[:p] is not yet consumed
	curI, curC, lo, hi := ids, counts, p, n     // the run is cur[lo:hi]
	w := n                                      // ids[w:] holds this pass's survivors
	r := 0
	for lv := d.logU; lv >= 1; lv-- {
		parentLo := uint64(1) << (lv - 1)
		k := n + 1 // nxt[k:] holds the next level's run
		for j := hi; j > lo; {
			nj := max(j-2, lo) // the group's leader itself when it is the run's last
			raw, c, next := curI[j-1], curC[j-1], curI[nj]
			id := raw &^ propped
			si := id & 1 & bit(next&^propped == id-1) // only an odd id has its sibling next
			sc := curC[nj] & -si
			j -= 1 + int(si)
			parent := id >> 1
			// Parents above this group's have no children on this
			// level in this pass: they pass through unchanged.
			for p > 0 && ids[p-1] > parent {
				p--
				k--
				nxtI[k], nxtC[k] = ids[p], counts[p]
			}
			q := max(p-1, 0)
			hp := bit(p > 0) & bit(ids[q] == parent)
			pc := counts[q] & -hp
			p -= int(hp)
			pair := c + sc
			fold := bit(pair+pc <= t)
			keep := 1 - fold
			// A folded group leaves its parent with the total; a kept one
			// leaves it as it was, marked if the pair needed it.
			nxtI[k-1], nxtC[k-1] = parent|(keep&bit(pair <= t))<<63, pc+pair&-fold
			k -= int(fold | hp)
			ids[w-1-int(si)], counts[w-1-int(si)] = id-si, sc|c&(si-1)
			ids[w-1], counts[w-1] = id, c
			w -= int(keep * (1 + si))
			re[r&(len(re)-1)] = parent
			r += int(fold & ((raw | next&-si) >> 63))
		}
		for p > 0 && ids[p-1] >= parentLo {
			p--
			k--
			nxtI[k], nxtC[k] = ids[p], counts[p]
		}
		curI, curC, lo, hi = nxtI, nxtC, k, n+1
		nxtI, nxtC, othI, othC = othI, othC, nxtI, nxtC
	}
	for j := hi; j > lo; j-- { // the root, if present
		w--
		ids[w], counts[w] = curI[j-1]&^propped, curC[j-1]
	}
	size := copy(ids, ids[w:])
	copy(counts, counts[w:])
	d.ids, d.counts = ids[:size], counts[:size]
	rs.w = [4][]uint64{nxtI[:0], nxtC[:0], othI[:0], othC[:0]}
	return r
}

// node is a change a repass makes to the body: id's count becomes count
// (0 removes it).
type node struct{ id, count uint64 }

// ovCap is the number of changes a repass holds before it writes them
// into the body.
const ovCap = 48

// repass is a pass confined to what the previous one re-enabled. Each
// of the r parents listed in re had a child fold away from under its
// own children while they needed it; those grandchildren groups are
// what the pass visits first. A group of a whole sweep can fold only if
// it is one of them, or if a fold earlier in the pass changed one of
// its nodes — and a fold changes only its parent, whose group is one
// level up. So from every group that folds the pass goes on to the
// parent's group, deepest first (groups on one level are independent,
// as in the sweep): the folds of a sweep, without the walk over every
// node. A listed grandchild group that turns out to stand is a lookup
// wasted, nothing more.
//
// The changes collect in a small overlay, written into the body at the
// end. Folds whose nodes held children up are listed in re for the next
// pass, as the sweep lists them, and their number is returned.
func (d *Digest) repass(t uint64, re *[2 * reCap]uint64, r int) int {
	// work holds the parents of the groups still to visit, ascending,
	// and is consumed from the top: the deepest group first. A visit
	// removes one entry and adds at most one, so work never holds more
	// than it started with.
	var work [2 * reCap]uint64
	nw := 0
	for _, q := range re[:r] {
		nw = insert(&work, nw, 2*q)
		nw = insert(&work, nw, 2*q+1)
	}
	var ov [ovCap]node
	no := 0
	r = 0
	for nw > 0 {
		nw--
		q := work[nw]
		cl, ch, cq := d.get(ov[:no], 2*q), d.get(ov[:no], 2*q+1), d.get(ov[:no], q)
		total := cl + ch + cq
		if cl|ch == 0 || total > t {
			continue // no group here, or one that stands
		}
		if no+3 > ovCap {
			d.apply(ov[:no])
			no = 0
		}
		no = set(&ov, no, q, total)
		propping := false
		for _, x := range [2]node{{2 * q, cl}, {2*q + 1, ch}} {
			if x.count == 0 {
				continue
			}
			no = set(&ov, no, x.id, 0)
			if x.id>>d.logU == 0 { // an inner node: did its children need it?
				pair := d.get(ov[:no], 2*x.id) + d.get(ov[:no], 2*x.id+1)
				propping = propping || pair != 0 && pair <= t
			}
		}
		if propping {
			re[r&(len(re)-1)] = q
			r++
		}
		if q > 1 {
			nw = insert(&work, nw, q>>1)
		}
	}
	d.apply(ov[:no])
	return r
}

// insert adds q to the ascending run work[:nw] unless it is there, and
// returns the run's new length.
func insert(work *[2 * reCap]uint64, nw int, q uint64) int {
	j := nw
	for j > 0 && work[j-1] > q {
		j--
	}
	if j > 0 && work[j-1] == q {
		return nw
	}
	copy(work[j+1:nw+1], work[j:nw])
	work[j] = q
	return nw + 1
}

// set records that id's count is now c, in place if the overlay already
// holds id, and returns the overlay's new length.
func set(ov *[ovCap]node, no int, id, c uint64) int {
	for i := range no {
		if ov[i].id == id {
			ov[i].count = c
			return no
		}
	}
	ov[no] = node{id, c}
	return no + 1
}

// get returns id's count in the body as the overlay ov amends it.
func (d *Digest) get(ov []node, id uint64) uint64 {
	for _, x := range ov {
		if x.id == id {
			return x.count
		}
	}
	if j, ok := slices.BinarySearch(d.ids, id); ok {
		return d.counts[j]
	}
	return 0
}

// apply writes the overlay ov into the body: an in-place merge from the
// tail, which moves the stretches between the changed ids with copy and
// then closes the gap the removals leave. Written nodes never overtake
// unread ones: every fold trades at least one node for at most one
// smaller-id parent, so above any id the overlay's body holds no more
// nodes than the original did.
func (d *Digest) apply(ov []node) {
	if len(ov) == 0 {
		return
	}
	slices.SortFunc(ov, func(a, b node) int { return cmp.Compare(a.id, b.id) })
	ids, counts := d.ids, d.counts
	n := len(ids)
	r, w := n, n // ids[:r] is unread, ids[w:n] is written
	for j := len(ov) - 1; j >= 0; j-- {
		x := ov[j]
		pos, found := slices.BinarySearch(ids[:r], x.id)
		end := pos
		if found {
			end++
		}
		span := r - end
		copy(ids[w-span:w], ids[end:r])
		copy(counts[w-span:w], counts[end:r])
		w -= span
		r = pos
		if x.count != 0 {
			w--
			ids[w], counts[w] = x.id, x.count
		}
	}
	size := r + copy(ids[r:], ids[w:n])
	copy(counts[r:], counts[w:n])
	d.ids, d.counts = ids[:size], counts[:size]
}
