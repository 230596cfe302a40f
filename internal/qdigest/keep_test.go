package qdigest

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestKeepsOnlyItsState: a digest holds its nodes and nothing else.
// Sorting, merging and compressing borrow their runs for the call, and
// the body ends every call in storage sized to it. So after a served
// slot's loop — 200 edge frames decoded into one pooled target, each
// merged into one accumulator — and after one fresh 8192-value batch,
// the capacity a digest holds beyond its live nodes is at most those
// nodes again plus a small constant, and no run the lender holds
// shares storage with a digest's body. The loop runs on a lender sized
// by it alone, as on an aggregator that builds no batch, so its runs
// fit the bodies and trade places with them.
func TestKeepsOnlyItsState(t *testing.T) {
	edge := func(seed uint64) []uint64 {
		vs := gen.LogNormalValues(8192, 0, 1, seed)
		us := make([]uint64, len(vs))
		for i, v := range vs {
			us[i] = min(uint64(v*4096), 1<<16-1)
		}
		return us
	}
	var frames [8][]byte
	for i := range frames {
		d := NewEpsilon(16, 0.02)
		d.UpdateBatch(edge(uint64(i)))
		var err error
		if frames[i], err = d.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	lender = core.Pool[runs]{}
	var target Digest
	slot := NewEpsilon(16, 0.02)
	for i := range 200 {
		if err := target.UnmarshalBinary(frames[i%8]); err != nil {
			t.Fatal(err)
		}
		notLent(t, "decode target", &target)
		if err := slot.Merge(&target); err != nil {
			t.Fatal(err)
		}
		notLent(t, "slot", slot)
	}
	fresh := NewEpsilon(16, 0.02)
	fresh.UpdateBatch(edge(99))
	notLent(t, "fresh", fresh)
	for name, d := range map[string]*Digest{"slot": slot, "decode target": &target, "fresh": fresh} {
		live := 16 * d.Size()
		held := 8 * (cap(d.ids) + cap(d.counts) + cap(d.pendIDs) + cap(d.pendCounts))
		if extra := held - live; extra > live+256 {
			t.Errorf("%s: %d B held beside %d B of live nodes", name, extra, live)
		}
	}
}

// notLent fails the test if a run the lender holds shares storage with
// d's body: a run d gave back that it still uses.
func notLent(t *testing.T, name string, d *Digest) {
	t.Helper()
	var held []*runs
	for range 8 { // the shelf and then some
		held = append(held, lender.Get())
	}
	for _, rs := range held {
		for _, run := range append([][]uint64{rs.ids, rs.counts}, rs.w[:]...) {
			if overlaps(run, d.ids) || overlaps(run, d.counts) {
				t.Fatalf("%s: its body shares storage with a run it gave back", name)
			}
		}
	}
	for _, rs := range held {
		lender.Put(rs)
	}
}

// overlaps reports whether the storage behind a and b intersects.
func overlaps(a, b []uint64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+8*uintptr(cap(b)) && pb < pa+8*uintptr(cap(a))
}
