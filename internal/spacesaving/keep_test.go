package spacesaving

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestKeepsOnlyItsState: a summary holds its stream-summary structure
// and nothing else. A decode stages the frame's states, a merge lists
// its operands and builds its result, and an encode sorts, all in runs
// borrowed for the call. So after a served slot's loop — 200 edge
// frames decoded into one reused target, each folded in with the
// catalog merge — and after a fresh 8192-record batch, the storage a
// summary reaches beyond its state is at most the state's entries
// (room for k, 64 B each across the entry and bucket arrays) plus a
// small constant, and no run the lender holds shares storage with a
// summary or a clone of one.
// A summary's state is what a fresh summary of its k holds: those
// entries and the index over them. The index never outgrows a fresh
// one's: a merge indexes its combined states (up to 2k) in a lent
// table, not in it.
func TestKeepsOnlyItsState(t *testing.T) {
	const k = 1000
	edge := func(seed uint64) []core.Item { return gen.NewZipf(1<<16, 1.1, seed).Stream(8192) }
	var frames [8][]byte
	for i := range frames {
		s := New(k)
		s.UpdateBatch(edge(uint64(i)))
		var err error
		if frames[i], err = s.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	var target Summary
	slot := New(k)
	for i := range 200 {
		if err := target.UnmarshalBinary(frames[i%8]); err != nil {
			t.Fatal(err)
		}
		notLent(t, "decode target", &target)
		if err := slot.MergeLowError(&target); err != nil {
			t.Fatal(err)
		}
		notLent(t, "slot", slot)
	}
	fresh := New(k)
	fresh.UpdateBatch(edge(99))
	notLent(t, "fresh", fresh)
	notLent(t, "clone", slot.Clone())
	empty := New(k)
	for name, s := range map[string]*Summary{"slot": slot, "decode target": &target, "fresh": fresh} {
		state := heldBytes(reflect.ValueOf(empty))
		if extra := heldBytes(reflect.ValueOf(s)) - state; extra > 64*s.K()+256 {
			t.Errorf("%s: %d B held beside a state of %d B", name, extra, state)
		}
		if got, want := s.index.Cap(), empty.index.Cap(); got > want {
			t.Errorf("%s: an index of %d slots where a fresh summary of k=%d has %d", name, got, k, want)
		}
	}
}

// notLent fails the test if a run the lender holds shares storage with
// s's entry arrays: a run s gave back that it still uses.
func notLent(t *testing.T, name string, s *Summary) {
	t.Helper()
	var held []*runs
	for range 8 { // the shelf and then some
		held = append(held, lender.Get())
	}
	for _, rs := range held {
		for _, state := range [][]uint64{s.items, s.counts, s.eps, s.bcnt} {
			if overlaps(rs.keys, state) || overlaps(rs.states, state) || overlaps(rs.spare, state) {
				t.Fatalf("%s: its entries share storage with a run it gave back", name)
			}
		}
	}
	for _, rs := range held {
		lender.Put(rs)
	}
}

// overlaps reports whether the storage behind a and b intersects.
func overlaps[A, B any](a []A, b []B) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+unsafe.Sizeof(b[:1][0])*uintptr(cap(b)) && pb < pa+unsafe.Sizeof(a[:1][0])*uintptr(cap(a))
}

// heldBytes is the storage v reaches through its slices, pointers and
// fields — state, core.Index tables and any scratch kept beside them.
func heldBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return heldBytes(v.Elem())
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += heldBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	}
	return 0
}
