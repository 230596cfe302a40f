package qdigest

import (
	"slices"

	"repro/internal/core"
)

// A batch is ingested as sorted runs, not value by value: up to
// batchRun values at a time are clamped, sorted by core.SortKeys on
// their logU value bits and run-length-encoded into an ascending
// (leaf id, count) run, which is merged into the body in one
// two-pointer union — the step Merge performs on another digest's body
// — followed by at most one Compress under the rule Update follows.
// The pending leaves are not involved (it is flushed first, so that
// a leaf is never both pending and in the body).
//
// The contract is guarantee-equivalence with the loop of Update calls,
// not state identity: N, ErrorBound and every rank bound are those of
// the loop, and the q-digest property holds after Compress, but the
// compressions fall at run boundaries instead of after single values,
// so the node sets — and the encoded bytes — may differ. DESIGN.md §5
// tabulates which families promise which, and why either is sound.

// batchRun is the number of values sorted into one run. It bounds the
// scratch a batch borrows (two runs of this length) and the nodes a
// batch can add between compressions, whatever the length of the
// caller's slice.
const batchRun = 8192

// UpdateBatch adds one occurrence of every value in vs (each clamped
// into the universe).
func (d *Digest) UpdateBatch(vs []uint64) {
	rs := lender.Get()
	for len(vs) > 0 {
		m := min(len(vs), batchRun)
		ids, counts := d.leafRun(rs, m)
		for i, v := range vs[:m] {
			ids[i] = d.leaf(v)
		}
		core.SortKeys(ids, counts, 0, uint(d.logU)) // leaf ids differ in their value bits only
		// Run-length encode in place: the write never passes the read.
		r := 0
		for i := 0; i < m; {
			id, j := ids[i], i+1
			for j < m && ids[j] == id {
				j++
			}
			ids[r], counts[r] = id, uint64(j-i)
			r++
			i = j
		}
		d.mergeBody(rs, ids[:r], counts[:r])
		d.n += uint64(m)
		if d.inserted(m) {
			d.compress(rs)
		}
		d.keep(rs)
		vs = vs[m:]
	}
	lender.Put(rs)
	debugAssertSampled(d)
}

// leafRun flushes the pending leaves and returns two borrowed runs of
// length m that last until the run is merged into the body: runs that
// flush (called here, first) and compress (called after the merge) use
// and mergeBody does not.
func (d *Digest) leafRun(rs *runs, m int) (ids, counts []uint64) {
	d.flush(rs)
	rs.w[2] = slices.Grow(rs.w[2][:0], m)
	rs.w[3] = slices.Grow(rs.w[3][:0], m)
	return rs.w[2][:m], rs.w[3][:m]
}
