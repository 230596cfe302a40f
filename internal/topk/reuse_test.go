package topk

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
)

// TestUnmarshalReusesReceiver: a tracker of any k over a sketch of any
// geometry decodes a frame of any other into its own sketch, map, heap
// and recycled candidates and is then indistinguishable from a fresh
// decode, now and after further updates.
func TestUnmarshalReusesReceiver(t *testing.T) {
	build := func(k, width, depth int, seed uint64) *Tracker {
		tr := New(k, width, depth, seed)
		tr.UpdateBatch(gen.NewZipf(400, 1.2, seed).Stream(3000))
		return tr
	}
	shapes := []*Tracker{build(1, 16, 1, 1), build(16, 128, 3, 2), build(16, 128, 3, 3), build(40, 64, 5, 4), New(8, 32, 2, 5)}
	more := gen.NewZipf(400, 1.2, 99).Stream(800)
	for i, from := range shapes {
		for j, to := range shapes {
			frame, err := to.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			reused, fresh := from.Clone(), new(Tracker)
			if err := reused.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if err := fresh.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			reused.UpdateBatch(more)
			fresh.UpdateBatch(more)
			a, _ := reused.MarshalBinary()
			b, _ := fresh.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("shape %d decoded into shape %d: diverges from a fresh decode after updates", j, i)
			}
		}
	}
}

// TestUnmarshalRejectsWideInnerBytes: every element of the nested
// frame is a byte; a larger uvarint used to be cut to its low eight
// bits and is now a decode error.
func TestUnmarshalRejectsWideInnerBytes(t *testing.T) {
	tr := New(4, 16, 2, 1)
	tr.UpdateBatch(gen.NewZipf(50, 1.2, 1).Stream(200))
	inner, err := tr.sketch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	frameWith := func(first func(w *codec.Buffer)) []byte {
		var w codec.Buffer
		w.Int(4)
		w.Int(len(inner))
		first(&w)
		for _, b := range inner[1:] {
			w.Uint64(uint64(b))
		}
		w.Int(0)
		return codec.EncodeFrame(codec.KindTopK, w.Bytes())
	}
	good := frameWith(func(w *codec.Buffer) { w.Uint64(uint64(inner[0])) })
	if err := new(Tracker).UnmarshalBinary(good); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	// inner[0] + 256 has the same low byte: the old decoder took it.
	wide := frameWith(func(w *codec.Buffer) { w.Uint64(uint64(inner[0]) + 256) })
	if err := new(Tracker).UnmarshalBinary(wide); err == nil {
		t.Fatal("nested byte + 256 accepted")
	}
}
