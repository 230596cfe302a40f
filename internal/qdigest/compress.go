package qdigest

import "slices"

// Compress restores the q-digest property, merging under-full sibling
// pairs into their parents bottom-up. It leaves every node in the body:
// the pending run is empty afterwards. On a digest nothing has
// touched since the last Compress it returns at once.
//
// Each pass sweeps the whole body (compressPass), and passes repeat
// until one folds no node its children needed. The first pass is the
// only one an edge batch or a merge into a grown accumulator needs; a
// young slot absorbing edge frames needs more about one merge in four
// (over the 3,648 merges of three merge_heavy rounds, 2,770 took one
// pass, 404 two, 260 three, 121 four and 93 five to ten).
func (d *Digest) Compress() {
	if d.clean {
		return
	}
	rs := lender.Get()
	d.compress(rs)
	d.keep(rs)
	lender.Put(rs)
}

// compress is Compress on a digest that is not clean, in runs the
// caller borrowed; the caller ends with keep.
func (d *Digest) compress(rs *runs) {
	d.dirty = 0
	d.flush(rs)
	if t := d.n / d.k; t != 0 {
		for d.compressPass(rs, t) {
		}
	}
	d.base = len(d.ids)
	d.clean = true
}

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
// folded, and does fail there. The pass reports whether it folded one:
// false means the fixpoint is reached without a sweep to verify it.
func (d *Digest) compressPass(rs *runs, t uint64) bool {
	ids, counts := d.ids, d.counts
	n := len(ids)
	nxtI, nxtC := slices.Grow(rs.w[0][:0], n+1)[:n+1], slices.Grow(rs.w[1][:0], n+1)[:n+1]
	othI, othC := slices.Grow(rs.w[2][:0], n+1)[:n+1], slices.Grow(rs.w[3][:0], n+1)[:n+1]
	p, _ := slices.BinarySearch(ids, 1<<d.logU) // ids[:p] is not yet consumed
	curI, curC, lo, hi := ids, counts, p, n     // the run is cur[lo:hi]
	w := n                                      // ids[w:] holds this pass's survivors
	var r uint64                                // 1 once a propped node folds
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
			r |= fold & ((raw | next&-si) >> 63)
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
	return r != 0
}
