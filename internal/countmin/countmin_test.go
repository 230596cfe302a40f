package countmin

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"width":       func() { New(0, 2, 1) },
		"depth":       func() { New(2, 0, 1) },
		"zero-weight": func() { New(8, 2, 1).Update(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNeverUnderestimates(t *testing.T) {
	const n = 100000
	stream := gen.NewZipf(5000, 1.2, 3).Stream(n)
	truth := exact.FreqOf(stream)
	s := New(512, 4, 7)
	for _, x := range stream {
		s.Update(x, 1)
	}
	if s.N() != n {
		t.Fatalf("N = %d", s.N())
	}
	for _, c := range truth.Counters() {
		if est := s.Estimate(c.Item); est.Value < c.Count {
			t.Fatalf("underestimate of %d: %d < %d", c.Item, est.Value, c.Count)
		}
	}
}

func TestErrorWithinExpectedScale(t *testing.T) {
	const n = 200000
	stream := gen.NewZipf(5000, 1.3, 11).Stream(n)
	truth := exact.FreqOf(stream)
	eps := 0.01
	s := New(200, 7, 5) // width 2/ε, depth ⌈log2(1/δ)⌉ for δ = 0.01
	for _, x := range stream {
		s.Update(x, 1)
	}
	// With width=2/eps, overestimate of a given item exceeds eps*n with
	// probability < delta. Check the top 100 items all sit within eps*n.
	bound := uint64(eps * float64(n))
	for _, c := range truth.Counters()[:100] {
		est := s.Estimate(c.Item)
		if est.Value-c.Count > bound {
			t.Errorf("item %d: overestimate %d > %d", c.Item, est.Value-c.Count, bound)
		}
	}
}

func TestMergeEqualsWholeStream(t *testing.T) {
	const n = 60000
	stream := gen.NewZipf(1000, 1.4, 2).Stream(n)
	parts := gen.PartitionContiguous(stream, 8)
	whole := New(256, 3, 1)
	for _, x := range stream {
		whole.Update(x, 1)
	}
	merged := New(256, 3, 1)
	for _, p := range parts {
		s := New(256, 3, 1)
		for _, x := range p {
			s.Update(x, 1)
		}
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N() != whole.N() {
		t.Fatalf("N: %d != %d", merged.N(), whole.N())
	}
	if err := merged.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Linearity: the merged sketch must be bit-identical to the
	// whole-stream sketch.
	for _, x := range []core.Item{0, 1, 5, 99, 12345} {
		if merged.Estimate(x) != whole.Estimate(x) {
			t.Fatalf("estimate of %d differs: %v vs %v", x, merged.Estimate(x), whole.Estimate(x))
		}
	}
}

func TestMergeMismatched(t *testing.T) {
	a := New(128, 4, 1)
	for _, b := range []*Sketch{New(64, 4, 1), New(128, 3, 1), New(128, 4, 2)} {
		if err := a.Merge(b); err == nil {
			t.Error("mismatched sketch accepted")
		}
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New(64, 2, 1)
	s.Update(1, 10)
	c := s.Clone()
	c.Update(1, 5)
	if s.Estimate(1).Value != 10 || c.Estimate(1).Value != 15 {
		t.Fatal("clone not independent")
	}
	s.Reset()
	if s.N() != 0 || s.Estimate(1).Value != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := New(128, 4, 9)
	for _, x := range gen.NewZipf(500, 1.1, 6).Stream(20000) {
		s.Update(x, 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Width() != s.Width() || got.Depth() != s.Depth() {
		t.Fatal("header changed")
	}
	for x := core.Item(0); x < 500; x++ {
		if got.Estimate(x) != s.Estimate(x) {
			t.Fatalf("estimate of %d differs", x)
		}
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

// flaggedFrame spells s's frame by hand with the reserved flag byte set
// to 1, as a conservative-update sketch once encoded itself.
func flaggedFrame(s *Sketch, flag bool) []byte {
	var w codec.Buffer
	w.Int(s.width)
	w.Int(s.depth)
	w.Uint64(s.seed)
	w.Uint64(s.n)
	w.Bool(flag)
	for _, v := range s.cells {
		w.Uint64(v)
	}
	return codec.EncodeFrame(codec.KindCountMin, w.Bytes())
}

// TestCodecRejectsBrokenRowMass: every update adds its weight to every
// row, so a frame whose rows carry different masses, less than n, or a
// mass that wraps is no sketch of any stream (R8), and the decoder
// refuses it.
func TestCodecRejectsBrokenRowMass(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n          uint64
		cells      []uint64 // 4 rows of 2
		acceptable bool
	}{
		{"rows empty under n", 100, make([]uint64, 8), false},
		{"rows differ", 3, []uint64{1, 2, 3, 1, 2, 1, 0, 3}, false},
		{"row mass wraps", 2, []uint64{math.MaxUint64, 3, 1, 1, 1, 1, 1, 1}, false},
		{"rows above n", 2, []uint64{1, 2, 3, 0, 2, 1, 0, 3}, true},
	} {
		src := &Sketch{width: 2, depth: 4, seed: 5, n: tc.n, cells: tc.cells}
		var got Sketch
		err := got.UnmarshalBinary(flaggedFrame(src, false))
		if (err == nil) != tc.acceptable {
			t.Errorf("%s: decode error %v", tc.name, err)
		}
	}
}

// TestFlagByteRejected: the frame's flag byte is reserved and must be
// 0. A frame with it set carries cells that are no linear image of a
// stream, and adding them would break Merge (R8) without an error, so
// the decoder refuses it and leaves the receiver as it was.
func TestFlagByteRejected(t *testing.T) {
	src := New(64, 3, 5)
	src.UpdateBatch(gen.NewZipf(300, 1.1, 5).Stream(4000))
	plain, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flaggedFrame(src, false), plain) {
		t.Fatal("flaggedFrame does not spell the encoder's layout")
	}
	recv := New(64, 3, 5)
	recv.UpdateBatch(gen.NewZipf(300, 1.1, 6).Stream(1000))
	before, _ := recv.MarshalBinary()
	if err := recv.UnmarshalBinary(flaggedFrame(src, true)); err == nil {
		t.Fatal("frame with the flag byte set accepted")
	}
	if after, _ := recv.MarshalBinary(); !bytes.Equal(after, before) {
		t.Fatal("rejected frame changed the receiver")
	}
}
