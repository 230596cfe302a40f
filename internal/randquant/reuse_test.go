package randquant

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// TestUnmarshalReusesReceiver: a summary of any block size, holding
// any hierarchy and free list, decodes a frame of any other block size
// into recycled storage and is then indistinguishable from a fresh
// decode — now, and after further updates and a merge, which draw from
// its RNG and its free list.
func TestUnmarshalReusesReceiver(t *testing.T) {
	build := func(s, n int, seed uint64) *Summary {
		q := New(s, seed)
		for _, v := range gen.UniformValues(n, seed) {
			q.Update(v)
		}
		return q
	}
	shapes := []*Summary{build(1, 9, 1), build(8, 1000, 2), build(64, 5000, 3), build(64, 10, 4), build(200, 3000, 5)}
	more := gen.UniformValues(1500, 11)
	for i, from := range shapes {
		for j, to := range shapes {
			frame, err := to.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			reused, fresh := from.Clone(), new(Summary)
			if err := reused.Merge(from); err != nil { // fills its free list
				t.Fatal(err)
			}
			if err := reused.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if err := fresh.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			for _, q := range []*Summary{reused, fresh} {
				for _, v := range more {
					q.Update(v)
				}
				if err := q.Merge(to); err != nil {
					t.Fatal(err)
				}
				if err := q.checkInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			a, _ := reused.MarshalBinary()
			b, _ := fresh.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("shape %d decoded into shape %d: diverges from a fresh decode after updates", j, i)
			}
		}
	}
}

// TestMergeRecyclesBlocks: merging in a loop reaches a steady state in
// which carries are served from the free list.
func TestMergeRecyclesBlocks(t *testing.T) {
	dst, src := New(32, 1), New(32, 2)
	for _, v := range gen.UniformValues(4000, 3) {
		dst.Update(v)
		src.Update(v)
	}
	for range 64 {
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("steady-state merge: %v allocs", allocs)
	}
	if err := dst.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
