package gk

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestKeepsOnlyItsState: a summary holds its tuples and its insert
// buffer and nothing else. Flush sweeps in the tuples' own storage,
// and the sort keys, Merge's interleaved run and the decoder's read run
// are borrowed for the call, so after a served slot's loop — 200 edge
// frames decoded into one pooled target, each merged into one
// accumulator — and after one fresh 8192-value batch, the capacity a
// summary holds beyond its live tuples is at most those tuples again
// plus the room a flush needs (a full insert buffer and the tuples it
// adds), and no run the lender holds shares storage with a summary's
// tuples. The loop runs on a lender sized by it alone, so the
// decoder's run fits the target and trades places with it.
func TestKeepsOnlyItsState(t *testing.T) {
	var frames [8][]byte
	for i := range frames {
		g := New(0.02)
		g.UpdateBatch(gen.LogNormalValues(8192, 0, 1, uint64(i)))
		var err error
		if frames[i], err = g.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	lender = core.Pool[runs]{}
	var target Summary
	slot := New(0.02)
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
	fresh := New(0.02)
	fresh.UpdateBatch(gen.LogNormalValues(8192, 0, 1, 99))
	notLent(t, "fresh", fresh)
	for name, g := range map[string]*Summary{"slot": slot, "decode target": &target, "fresh": fresh} {
		live := 24*len(g.tuples) + 8*len(g.buf)
		held := 24*cap(g.tuples) + 8*cap(g.buf)
		if extra := held - live; extra > live+(24+8)*g.bufCap+256 {
			t.Errorf("%s: %d B held beside %d B of live tuples", name, extra, live)
		}
	}
}

// notLent fails the test if a run the lender holds shares storage with
// s's tuples: a run s gave back that it still uses.
func notLent(t *testing.T, name string, s *Summary) {
	t.Helper()
	var held []*runs
	for range 8 { // the shelf and then some
		held = append(held, lender.Get())
	}
	for _, rs := range held {
		if cap(rs.tuples) > 0 && cap(s.tuples) > 0 {
			a, b := unsafe.SliceData(rs.tuples), unsafe.SliceData(s.tuples)
			pa, pb, size := uintptr(unsafe.Pointer(a)), uintptr(unsafe.Pointer(b)), unsafe.Sizeof(tuple{})
			if pa < pb+size*uintptr(cap(s.tuples)) && pb < pa+size*uintptr(cap(rs.tuples)) {
				t.Fatalf("%s: its tuples share storage with a run it gave back", name)
			}
		}
	}
	for _, rs := range held {
		lender.Put(rs)
	}
}
