package topk

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestKeepsOnlyItsState: a tracker holds its sketch and its directory
// and nothing else. A decode copies the nested sketch frame out and
// stages the candidates, and an encode builds the nested frame, all in
// runs borrowed for the call. So after a served slot's loop — 200 edge
// frames decoded into one reused target, each folded in with the
// catalog merge — and after a fresh 8192-record batch, the storage a
// tracker reaches beyond its sketch and its directory's room for k
// candidates is at most that room plus a small constant, and no run the
// lender holds shares storage with a tracker or a clone of one. The sketch's cells are
// fixed by its geometry, so the directory is the state measured.
func TestKeepsOnlyItsState(t *testing.T) {
	const k, width, depth = 64, 2048, 4
	edge := func(seed uint64) []core.Item { return gen.NewZipf(1<<16, 1.1, seed).Stream(8192) }
	var frames [8][]byte
	for i := range frames {
		tr := New(k, width, depth, 7)
		tr.UpdateBatch(edge(uint64(i)))
		var err error
		if frames[i], err = tr.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	var target Tracker
	slot := New(k, width, depth, 7)
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
	fresh := New(k, width, depth, 7)
	fresh.UpdateBatch(edge(99))
	notLent(t, "fresh", fresh)
	notLent(t, "clone", slot.Clone())
	for name, tr := range map[string]*Tracker{"slot": slot, "decode target": &target, "fresh": fresh} {
		state := 16 * tr.K()
		held := heldBytes(reflect.ValueOf(tr)) - heldBytes(reflect.ValueOf(tr.sketch))
		if extra := held - state; extra > state+256 {
			t.Errorf("%s: %d B held beside a directory of %d B", name, extra, state)
		}
	}
}

// notLent fails the test if a run the lender holds shares storage with
// tr's directory: a run tr gave back that it still uses.
func notLent(t *testing.T, name string, tr *Tracker) {
	t.Helper()
	var held []*runs
	for range 8 { // the shelf and then some
		held = append(held, lender.Get())
	}
	for _, rs := range held {
		if overlaps(rs.inner, tr.items) || overlaps(rs.inner, tr.ests) ||
			overlaps(rs.cands, tr.items) || overlaps(rs.cands, tr.ests) ||
			overlaps(rs.dir.items, tr.items) || overlaps(rs.dir.ests, tr.ests) {
			t.Fatalf("%s: its directory shares storage with a run it gave back", name)
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
// fields: state and any scratch kept beside it.
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
