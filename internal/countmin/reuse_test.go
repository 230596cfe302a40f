package countmin

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestUnmarshalReusesReceiver: a sketch of any geometry and seed
// decodes a frame of any other into its own storage and is then indistinguishable from a fresh decode — bytes
// now, and bytes and estimates after further updates, which is where
// hash rows left over from the old seed or depth would show.
func TestUnmarshalReusesReceiver(t *testing.T) {
	build := func(width, depth int, seed uint64) *Sketch {
		s := New(width, depth, seed)
		s.UpdateBatch(gen.NewZipf(300, 1.1, seed).Stream(2000))
		return s
	}
	shapes := []*Sketch{
		build(64, 3, 1), build(64, 3, 2), build(64, 5, 1),
		build(200, 2, 9), build(8, 1, 1),
	}
	more := gen.NewZipf(300, 1.1, 77).Stream(500)
	for i, from := range shapes {
		for j, to := range shapes {
			frame, err := to.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			reused, fresh := from.Clone(), new(Sketch)
			if err := reused.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if err := fresh.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			for _, x := range more {
				reused.Update(x, 2)
				fresh.Update(x, 2)
			}
			a, _ := reused.MarshalBinary()
			b, _ := fresh.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("shape %d decoded into shape %d: diverges from a fresh decode after updates", j, i)
			}
			for x := core.Item(0); x < 50; x++ {
				if reused.Estimate(x) != fresh.Estimate(x) {
					t.Fatalf("shape %d decoded into shape %d: estimate of %d differs", j, i, x)
				}
			}
		}
	}
}

// TestUnmarshalFailureLeavesUsable: a frame that fails inside the
// counter run leaves the receiver empty, not half-written.
func TestUnmarshalFailureLeavesUsable(t *testing.T) {
	s := New(32, 2, 3)
	for _, x := range gen.NewZipf(100, 1.1, 3).Stream(500) {
		s.Update(x, 1000) // multi-byte cells: the geometry check cannot see one missing
	}
	frame, _ := s.MarshalBinary()
	// Same header, one cell short, behind a valid frame.
	payload, err := codec.DecodeFrame(codec.KindCountMin, frame)
	if err != nil {
		t.Fatal(err)
	}
	short := codec.EncodeFrame(codec.KindCountMin, payload[:len(payload)-1])
	if err := s.UnmarshalBinary(short); err == nil {
		t.Fatal("short counter run accepted")
	}
	if s.N() != 0 || s.Estimate(1).Value != 0 {
		t.Fatalf("receiver not empty after a failed decode: n=%d", s.N())
	}
}
