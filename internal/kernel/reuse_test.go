package kernel

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// TestUnmarshalReusesReceiver: a kernel over any number of directions,
// with or without a cached polygon, decodes a frame over any other
// number into its own storage and is then indistinguishable from a
// fresh decode — now, and after further updates, which is where a
// direction grid or an interior filter left over from before would
// show.
func TestUnmarshalReusesReceiver(t *testing.T) {
	build := func(m, n int, seed uint64) *Kernel {
		k := New(m)
		for _, p := range gen.RingPoints(n, 1.5, 0.05, seed) {
			k.Update(p)
		}
		return k
	}
	shapes := []*Kernel{build(2, 50, 1), build(24, 2000, 2), build(24, 3, 3), build(7, 500, 4), New(16)}
	more := gen.RingPoints(600, 2.5, 0.5, 9)
	for i, from := range shapes {
		for j, to := range shapes {
			frame, err := to.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			// Clone drops the cached polygon; rebuild one where it can be.
			reused, fresh := from.Clone(), new(Kernel)
			reused.rebuild()
			if err := reused.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if err := fresh.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			for _, p := range more {
				reused.Update(p)
				fresh.Update(p)
			}
			a, _ := reused.MarshalBinary()
			b, _ := fresh.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("shape %d decoded into shape %d: diverges from a fresh decode after updates", j, i)
			}
		}
	}
}
