package randquant

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestUnmarshalReusesReceiver: a summary of any block size and either
// mode, holding any hierarchy, decodes a frame of any
// other block size and mode (a receiver that last held a plain frame
// decodes a bounded one, and the reverse) into recycled storage and is
// then indistinguishable from a fresh decode — now, and after further
// updates and a merge, which draw from its RNG and the lender's free
// list.
func TestUnmarshalReusesReceiver(t *testing.T) {
	shapes := []*Summary{
		filled(New(1, 1), 9, 1), filled(New(8, 2), 1000, 2), filled(New(64, 3), 5000, 3), filled(New(64, 4), 10, 4), filled(New(200, 5), 3000, 5),
		filled(NewHybrid(8, 3, 6), 20, 6), filled(NewHybrid(8, 3, 7), 1<<15, 7), filled(NewHybrid(64, 2, 8), 1<<15, 8), filled(NewHybrid(8, 5, 9), 1<<15, 9),
	}
	more := gen.UniformValues(1500, 11)
	for i, from := range shapes {
		for j, to := range shapes {
			frame, err := to.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			reused, fresh := from.Clone(), new(Summary)
			if err := reused.Merge(from); err != nil { // fills the lender's free list
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

// TestMergeRecyclesBlocks: decoding and merging in a loop reaches a
// steady state in which blocks, carries and — in bounded mode, where
// the receiver's exponent soon outruns the frame's — the subsampled
// survivors are all served from the lender's free list: the merge
// allocates nothing, the decode at most its frame's one allocation.
func TestMergeRecyclesBlocks(t *testing.T) {
	for _, m := range modes {
		dst, frame := filled(m.new(32, 1), 4000, 3), mustMarshal(t, filled(m.new(32, 2), 4000, 3))
		var src Summary
		step := func() {
			if err := src.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(&src); err != nil {
				t.Fatal(err)
			}
		}
		for range 64 {
			step()
		}
		if allocs := testing.AllocsPerRun(50, step); allocs > 1 && !core.Sanitize {
			t.Fatalf("%s: steady-state decode+merge: %v allocs", m.name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = dst.Merge(&src) }); allocs > 0 {
			t.Fatalf("%s: steady-state merge: %v allocs", m.name, allocs)
		}
		if err := dst.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
