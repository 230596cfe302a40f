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
// scratch a batch retains on the digest (two runs of this length) and
// the nodes a batch can add between compressions, whatever the length
// of the caller's slice.
const batchRun = 8192

// UpdateBatch adds one occurrence of every value in vs (each clamped
// into the universe).
//
//sketch:hotpath
func (d *Digest) UpdateBatch(vs []uint64) {
	for len(vs) > 0 {
		m := min(len(vs), batchRun)
		ids, counts := d.leafRun(m)
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
		d.ingest(ids[:r], counts[:r], uint64(m), m)
		vs = vs[m:]
	}
	debugAssertSampled(d)
}

// UpdateBatchWeighted adds Weight occurrences of every Value in vs
// (each clamped into the universe). All weights must be >= 1; a zero
// weight panics before anything is added.
//
//sketch:hotpath
func (d *Digest) UpdateBatchWeighted(vs []WeightedValue) {
	for _, wv := range vs {
		if wv.Weight == 0 {
			panic("qdigest: zero-weight update")
		}
	}
	for len(vs) > 0 {
		m := min(len(vs), batchRun)
		ids, counts := d.leafRun(m)
		for i, wv := range vs[:m] {
			ids[i] = d.leaf(wv.Value)
		}
		core.SortKeys(ids, counts, 0, uint(d.logU))
		ids = slices.Compact(ids)
		counts = counts[:len(ids)]
		clear(counts)
		var total uint64
		for _, wv := range vs[:m] {
			j, _ := slices.BinarySearch(ids, d.leaf(wv.Value))
			counts[j] += wv.Weight
			total += wv.Weight
		}
		d.ingest(ids, counts, total, m)
		vs = vs[m:]
	}
	debugAssertSampled(d)
}

// leafRun flushes the pending leaves and returns two scratch runs of
// length m that last until ingest is done with them: they are the t
// runs, which flush (called here, first) and Compress (called by
// ingest, last) use and mergeBody does not.
//
//sketch:hotpath
func (d *Digest) leafRun(m int) (ids, counts []uint64) {
	d.flush()
	d.tIDs = slices.Grow(d.tIDs[:0], m)
	d.tCounts = slices.Grow(d.tCounts[:0], m)
	return d.tIDs[:m], d.tCounts[:m]
}

// ingest adds the ascending run (ids, counts) of total weight and m
// insertions to the body, and compresses if that is due.
//
//sketch:hotpath
func (d *Digest) ingest(ids, counts []uint64, weight uint64, m int) {
	d.mergeBody(ids, counts)
	d.n += weight
	d.inserted(m)
}

// WeightedValue pairs a universe value with an update weight for
// UpdateBatchWeighted.
type WeightedValue struct {
	Value  uint64
	Weight uint64
}
