package epsapprox

import (
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
)

func TestCodecRoundTrip(t *testing.T) {
	s := New(32, unitBox, 7)
	pts := gen.UniformPoints(5000, 3)
	for _, p := range pts {
		s.Update(p)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Size() != s.Size() || got.BlockSize() != s.BlockSize() {
		t.Fatal("round trip changed header")
	}
	for _, r := range queryGrid() {
		if got.RangeCount(r) != s.RangeCount(r) {
			t.Fatalf("RangeCount differs after round trip for %v", r)
		}
	}
	if err := got.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Decoded summaries keep working: update and merge.
	got.Update(gen.Point{X: 0.5, Y: 0.5})
	if got.N() != s.N()+1 {
		t.Fatal("decoded summary not updatable")
	}
	other := New(32, unitBox, 9)
	for _, p := range gen.UniformPoints(100, 4) {
		other.Update(p)
	}
	if err := got.Merge(other); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := New(8, unitBox, 1)
	for _, p := range gen.UniformPoints(100, 2) {
		s.Update(p)
	}
	data, _ := s.MarshalBinary()
	data[len(data)-5] ^= 0xff
	var got Summary
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func FuzzUnmarshal(f *testing.F) {
	s := New(8, unitBox, 1)
	for _, p := range gen.UniformPoints(200, 2) {
		s.Update(p)
	}
	seed, _ := s.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	// The hostile level tables of TestCodecRejectsHostileLevels.
	f.Add(rawFrame(2, 1, 1, make([]int, 300)))
	f.Add(rawFrame(2, 1, 1, append(make([]int, 64), 2)))
	f.Add(rawFrame(2, 1, 1, append(make([]int, 63), 2)))
	// TestDecodeNotSizedByHeader's: a huge block size and no points.
	f.Add(rawFrame(1<<28, 0, 0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Summary
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		if err := out.checkInvariants(); err != nil {
			t.Fatalf("accepted frame violates invariants: %v", err)
		}
	})
}

// rawFrame encodes a rangecount frame field by field, so tests can
// state level tables no honest encoder would produce: levels[i] is the
// number of points sent for level i, each at the box centre.
func rawFrame(size int, n uint64, partial int, levels []int) []byte {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(size)
	for _, v := range []float64{0, 0, 1, 1} {
		w.Float64(v)
	}
	w.Uint64(n)
	w.Uint64(1) // seed
	points := func(k int) {
		w.Int(k)
		for ; k > 0; k-- {
			w.Float64(0.5)
			w.Float64(0.5)
		}
	}
	points(partial)
	w.Int(len(levels))
	for _, k := range levels {
		points(k)
	}
	return codec.EncodeFrame(codec.KindRangeCount, w.Bytes())
}

// A hostile frame used to buy 24 bytes of level table per one-byte
// empty level it claimed, and a block at level 64 and up weighed
// len<<level == 0, so it passed the weight check while carrying points
// nothing accounted for. Both are rejected before anything is sized
// by them; the deepest level that still fits is accepted.
func TestCodecRejectsHostileLevels(t *testing.T) {
	var s Summary
	if err := s.UnmarshalBinary(rawFrame(2, 1, 1, make([]int, 1<<20))); err == nil {
		t.Error("frame claiming 2^20 levels accepted")
	}
	weightless := make([]int, 65)
	weightless[64] = 2
	if err := s.UnmarshalBinary(rawFrame(2, 1, 1, weightless)); err == nil {
		t.Error("block at level 64 (weight 2<<64 = 0) accepted")
	}
	wraps := make([]int, 64)
	wraps[63] = 2
	if err := s.UnmarshalBinary(rawFrame(2, 1, 1, wraps)); err == nil {
		t.Error("block at level 63 of size 2 (weight 2^64) accepted")
	}
	deepest := make([]int, 63)
	deepest[62] = 2
	if err := s.UnmarshalBinary(rawFrame(2, 1<<63+1, 1, deepest)); err != nil {
		t.Errorf("valid deepest-level frame rejected: %v", err)
	}
	// The regression is real: the pre-fix decoder, kept as the
	// differential oracle, takes both weightless frames.
	for name, levels := range map[string][]int{"level 64": weightless, "level 63": wraps} {
		if err := new(refSummary).UnmarshalBinary(rawFrame(2, 1, 1, levels)); err != nil {
			t.Errorf("%s: oracle decoder no longer shows the bug: %v", name, err)
		}
	}
}

// The header's block size is bounded only by what Reader.Int takes
// (2^31-1), and a frame that claims a huge one need not send a single
// point: nothing the decoder retains — blocks, the read run — may be
// sized by it. Frames with no points at all and with a few in the
// partial are both accepted, on a fresh receiver and on one whose
// scratch has served honest frames. (Smallest size first and fatal on
// the first excess, so a decoder that does size by the header fails
// here on 64 MiB, not on 32 GiB.)
func TestDecodeNotSizedByHeader(t *testing.T) {
	honest := New(8, unitBox, 1)
	for _, p := range gen.UniformPoints(200, 2) {
		honest.Update(p)
	}
	warm, _ := honest.MarshalBinary()
	for _, size := range []int{1 << 22, 1 << 28, 1<<31 - 1} {
		for _, partial := range []int{0, 3} {
			frame := rawFrame(size, uint64(partial), partial, nil)
			for _, how := range []string{"fresh", "warm"} {
				var s Summary
				if how == "warm" {
					if err := s.UnmarshalBinary(warm); err != nil {
						t.Fatal(err)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := s.UnmarshalBinary(frame)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("size %d, partial %d, %s: %v", size, partial, how, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
					t.Fatalf("size %d, partial %d, %s receiver: decode allocated %d bytes for a %d-byte frame", size, partial, how, got, len(frame))
				}
				if s.lv.S != size || s.N() != uint64(partial) {
					t.Errorf("size %d, partial %d, %s: decoded s=%d n=%d", size, partial, how, s.lv.S, s.N())
				}
			}
		}
	}
}
