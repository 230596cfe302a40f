package gk

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
)

func TestCodecRoundTrip(t *testing.T) {
	s := New(0.02)
	for _, v := range gen.NormalValues(30000, 21) {
		s.Update(v)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Epsilon() != s.Epsilon() || got.Size() != s.Size() {
		t.Fatal("round-trip changed header state")
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got.Quantile(phi) != s.Quantile(phi) {
			t.Errorf("phi=%v: %v != %v", phi, got.Quantile(phi), s.Quantile(phi))
		}
	}
	if err := got.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := New(0.1)
	s.Update(1)
	s.Update(2)
	data, _ := s.MarshalBinary()
	data[len(data)-5] ^= 0xff
	var got Summary
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestCodecRejectsInconsistentWeight(t *testing.T) {
	s := New(0.1)
	for _, v := range gen.UniformValues(100, 1) {
		s.Update(v)
	}
	s.Flush()
	s.n++ // corrupt the in-memory state before encoding
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("inconsistent weight accepted")
	}
}

// frameOf encodes a GK frame by hand: eps, n and the listed tuples,
// whatever invariant they break.
func frameOf(eps float64, n uint64, ts ...tuple) []byte {
	var w codec.Buffer
	w.Float64(eps)
	w.Uint64(n)
	w.Int(len(ts))
	for _, t := range ts {
		w.Float64(t.v)
		w.Uint64(t.g)
		w.Uint64(t.delta)
	}
	return codec.EncodeFrame(codec.KindGK, w.Bytes())
}

// Every sweep over a tuple list — flush, Merge, the queries — assumes
// the GK invariants, so a frame that breaks one is refused before the
// receiver changes. Each hostile frame below weighs exactly its n: the
// weight check alone lets all of them through.
func TestCodecRejectsHostileTuples(t *testing.T) {
	const big = 1<<62 + 1 // three tuples of (big+2^64)/3 wrap Σg to big
	const third = (big + 1<<64) / 3
	for name, frame := range map[string][]byte{
		"decreasing value": frameOf(0.1, 3, tuple{5, 1, 0}, tuple{1, 1, 0}, tuple{3, 1, 0}),
		"NaN value":        frameOf(0.1, 3, tuple{1, 1, 0}, tuple{math.NaN(), 1, 0}, tuple{3, 1, 0}),
		"NaN first":        frameOf(0.1, 2, tuple{math.NaN(), 1, 0}, tuple{3, 1, 0}),
		"g = 0":            frameOf(0.1, 2, tuple{1, 1, 0}, tuple{2, 0, 0}, tuple{3, 1, 0}),
		"delta = 2^40":     frameOf(0.1, 3, tuple{1, 1, 0}, tuple{2, 1, 1 << 40}, tuple{3, 1, 0}),
		"g+delta wraps":    frameOf(0.1, 3, tuple{1, 1, 0}, tuple{2, 1, math.MaxUint64}, tuple{3, 1, 0}),
		"g above 2εn+1":    frameOf(0.1, 100, tuple{1, 99, 0}, tuple{2, 1, 0}),
		"Σg wraps":         frameOf(0.9, big, tuple{1, third, 0}, tuple{2, third, 0}, tuple{3, third, 0}),
	} {
		s := New(0.05)
		s.UpdateBatch(gen.UniformValues(1000, 1))
		before, _ := s.MarshalBinary()
		if err := s.UnmarshalBinary(frame); err == nil {
			t.Errorf("%s: frame accepted (Quantile(0)=%v, Quantile(1)=%v)", name, s.Quantile(0), s.Quantile(1))
			continue
		}
		if after, _ := s.MarshalBinary(); !bytes.Equal(before, after) {
			t.Errorf("%s: rejected frame changed the receiver", name)
		}
	}
	// The same shapes with the invariants kept decode, g+Δ = ⌊2εn⌋+1
	// included.
	var s Summary
	for _, frame := range [][]byte{
		frameOf(0.1, 3, tuple{1, 1, 0}, tuple{3, 1, 0}, tuple{5, 1, 0}),
		frameOf(0.1, 100, tuple{1, 1, 0}, tuple{2, 1, 20}, tuple{3, 21, 0}, tuple{3, 21, 0}, tuple{5, 21, 0}, tuple{6, 21, 0}, tuple{7, 14, 0}),
	} {
		if err := s.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// checkInvariants, which the sanitize layer runs after every flush and
// merge, must see a NaN that no ordering comparison does.
func TestInvariantsCatchNaN(t *testing.T) {
	s := New(0.1)
	s.UpdateBatch([]float64{1, 2, 3, 4})
	s.Flush()
	s.tuples[2].v = math.NaN()
	if err := s.checkInvariants(); err == nil {
		t.Fatal("a NaN tuple passed checkInvariants")
	}
}

func TestCodecEmptySummary(t *testing.T) {
	s := New(0.1)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 || got.Size() != 0 {
		t.Fatal("empty round-trip not empty")
	}
}
