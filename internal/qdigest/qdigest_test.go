package qdigest

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"logU=0":      func() { New(0, 4) },
		"logU=63":     func() { New(63, 4) },
		"k=0":         func() { New(16, 0) },
		"eps=0":       func() { NewEpsilon(16, 0) },
		"eps=1":       func() { NewEpsilon(16, 1) },
		"zero weight": func() { New(8, 4).Update(1, 0) },
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

func TestSmallExact(t *testing.T) {
	d := New(8, 1000) // huge k: threshold 0, no compression
	for _, v := range []uint64{5, 1, 9, 3, 7} {
		d.Update(v, 1)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d", d.N())
	}
	if r := d.Rank(4); r != 2 {
		t.Errorf("Rank(4) = %d, want 2", r)
	}
	if q := d.Quantile(0.5); q != 5 {
		t.Errorf("Quantile(0.5) = %d, want 5", q)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClampsToUniverse(t *testing.T) {
	d := New(4, 8) // universe [0, 16)
	d.Update(100, 3)
	if r := d.Rank(15); r != 3 {
		t.Errorf("clamped value not at universe max: Rank(15) = %d", r)
	}
}

// The q-digest guarantee: rank error <= logU * floor(n/k) <= eps*n for
// NewEpsilon.
func TestRankGuarantee(t *testing.T) {
	const n = 100000
	const logU = 16
	for _, eps := range []float64{0.05, 0.01} {
		for name, mkStream := range map[string]func() []uint64{
			"zipf": func() []uint64 {
				z := gen.NewZipf(1<<logU, 1.2, 3)
				out := make([]uint64, n)
				for i := range out {
					out[i] = uint64(z.Sample())
				}
				return out
			},
			"uniform": func() []uint64 {
				rng := gen.NewRNG(5)
				out := make([]uint64, n)
				for i := range out {
					out[i] = rng.Uint64n(1 << logU)
				}
				return out
			},
		} {
			stream := mkStream()
			d := NewEpsilon(logU, eps)
			exactRank := func(v uint64) uint64 {
				var r uint64
				for _, x := range stream {
					if x <= v {
						r++
					}
				}
				return r
			}
			for _, v := range stream {
				d.Update(v, 1)
			}
			d.Compress()
			if err := d.checkInvariants(); err != nil {
				t.Fatalf("%s eps=%v: %v", name, eps, err)
			}
			slack := uint64(eps*n) + 1
			for _, v := range []uint64{100, 1 << 8, 1 << 12, 1 << 14, 1<<16 - 1} {
				got, want := d.Rank(v), exactRank(v)
				if got > want {
					t.Fatalf("%s eps=%v: Rank(%d) = %d overestimates true %d", name, eps, v, got, want)
				}
				if want-got > slack {
					t.Errorf("%s eps=%v: Rank(%d) = %d, true %d, undershoot > %d", name, eps, v, got, want, slack)
				}
			}
			for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
				q := d.Quantile(phi)
				// q is correct if the target rank falls within q's own
				// rank interval [#values < q, #values <= q] up to
				// slack (a heavy value legitimately spans many ranks).
				var below uint64
				if q > 0 {
					below = exactRank(q - 1)
				}
				atOrBelow := exactRank(q)
				target := uint64(phi * n)
				var diff uint64
				if target > atOrBelow {
					diff = target - atOrBelow
				} else if below > target {
					diff = below - target
				}
				if diff > slack {
					t.Errorf("%s eps=%v phi=%v: quantile rank error %d > %d (q=%d interval [%d,%d] target %d)",
						name, eps, phi, diff, slack, q, below, atOrBelow, target)
				}
			}
		}
	}
}

// Size must stay near O(k) = O(logU/eps), far below the number of
// distinct values.
func TestSizeCompressed(t *testing.T) {
	const n = 200000
	const logU = 20
	d := NewEpsilon(logU, 0.01)
	rng := gen.NewRNG(7)
	for i := 0; i < n; i++ {
		d.Update(rng.Uint64n(1<<logU), 1)
	}
	d.Compress()
	// k = logU/eps = 2000; classic bound is 3k nodes.
	if d.Size() > 3*int(d.K()) {
		t.Errorf("size %d exceeds 3k = %d", d.Size(), 3*d.K())
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Mergeability: a binary merge tree over partitions obeys the same
// bound as the whole-stream digest.
func TestMergeTreeGuarantee(t *testing.T) {
	const n = 120000
	const logU = 14
	eps := 0.02
	z := gen.NewZipf(1<<logU, 1.1, 9)
	stream := make([]uint64, n)
	for i := range stream {
		stream[i] = uint64(z.Sample())
	}
	exactRank := func(v uint64) uint64 {
		var r uint64
		for _, x := range stream {
			if x <= v {
				r++
			}
		}
		return r
	}
	parts := gen.PartitionRandomSizes(stream, 16, 4)
	digests := make([]*Digest, len(parts))
	for i, p := range parts {
		digests[i] = NewEpsilon(logU, eps)
		for _, v := range p {
			digests[i].Update(v, 1)
		}
	}
	for len(digests) > 1 {
		var next []*Digest
		for i := 0; i+1 < len(digests); i += 2 {
			if err := digests[i].Merge(digests[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, digests[i])
		}
		if len(digests)%2 == 1 {
			next = append(next, digests[len(digests)-1])
		}
		digests = next
	}
	m := digests[0]
	if m.N() != n {
		t.Fatalf("N = %d, want %d", m.N(), n)
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Size() > 3*int(m.K()) {
		t.Errorf("merged size %d exceeds 3k", m.Size())
	}
	slack := uint64(eps*n) + 1
	for _, v := range []uint64{10, 1 << 6, 1 << 10, 1 << 13} {
		got, want := m.Rank(v), exactRank(v)
		if got > want || want-got > slack {
			t.Errorf("Rank(%d) = %d, true %d (slack %d)", v, got, want, slack)
		}
	}
}

func TestMergeMismatched(t *testing.T) {
	a := New(8, 16)
	if err := a.Merge(New(9, 16)); err == nil {
		t.Error("mismatched logU accepted")
	}
	if err := a.Merge(New(8, 32)); err == nil {
		t.Error("mismatched k accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestMergeDoesNotModifyOther(t *testing.T) {
	a, b := New(8, 4), New(8, 4)
	a.Update(1, 10)
	b.Update(2, 20)
	bn, bsize := b.N(), b.Size()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if b.N() != bn || b.Size() != bsize {
		t.Fatal("merge modified other")
	}
	if a.N() != 30 {
		t.Fatalf("a.N = %d", a.N())
	}
}

func TestErrorBound(t *testing.T) {
	d := New(10, 100)
	for i := uint64(0); i < 1000; i++ {
		d.Update(i, 1)
	}
	if got, want := d.ErrorBound(), uint64(10)*(1000/100); got != want {
		t.Errorf("ErrorBound = %d, want %d", got, want)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := NewEpsilon(12, 0.02)
	rng := gen.NewRNG(11)
	for i := 0; i < 50000; i++ {
		d.Update(rng.Uint64n(1<<12), 1)
	}
	data, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Digest
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() || got.Size() != d.Size() || got.K() != d.K() || got.LogUniverse() != d.LogUniverse() {
		t.Fatal("round trip changed header")
	}
	for _, v := range []uint64{10, 100, 1000, 4000} {
		if got.Rank(v) != d.Rank(v) {
			t.Fatalf("Rank(%d) differs after round trip", v)
		}
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

// TestDecodeRefusesWrappedWeight: node counts must sum to n in
// 64 bits. Two siblings counting 2^64−1 and 3 wrap to 2; a decoder
// that summed without a carry check would take the frame as a digest
// of n = 2 holding a node heavier than n.
func TestDecodeRefusesWrappedWeight(t *testing.T) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(4)      // logU
	w.Uint64(100) // k
	w.Uint64(2)   // n
	w.Int(2)
	w.Uint64(16)
	w.Uint64(math.MaxUint64)
	w.Uint64(17)
	w.Uint64(3)
	frame := codec.EncodeFrame(codec.KindQDigest, w.Bytes())
	var d Digest
	if err := d.UnmarshalBinary(frame); err == nil {
		t.Fatalf("frame whose counts wrap 2^64 to n accepted: n = %d, Rank(1000) = %d", d.N(), d.Rank(1000))
	}
	if d.N() != 0 || d.Size() != 0 {
		t.Fatalf("refused frame left n = %d, %d nodes in the receiver", d.N(), d.Size())
	}
}

// TestMergeRefusesWrappedWeight: a merge whose weights sum past 2^64
// is refused before the receiver changes. Self-merges of a digest of
// weight 2^62 reach 2^63 and then would wrap n to 0, leaving a digest
// whose own frame its decoder refuses.
func TestMergeRefusesWrappedWeight(t *testing.T) {
	d := New(4, 3)
	d.Update(1, 1<<62)
	for i := 0; i < 3; i++ {
		before, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		n := d.N()
		err = d.Merge(d.Clone())
		if n <= math.MaxUint64-n {
			if err != nil {
				t.Fatalf("merge %d: weight %d + %d refused: %v", i+1, n, n, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("merge %d: weight %d + %d accepted: n = %d", i+1, n, n, d.N())
		}
		after, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("merge %d: refused merge changed the digest", i+1)
		}
		var back Digest
		if err := back.UnmarshalBinary(after); err != nil {
			t.Fatalf("merge %d: digest's own frame refused: %v", i+1, err)
		}
		return
	}
	t.Fatal("no merge reached the wrap")
}

func TestWeightedUpdates(t *testing.T) {
	d := New(8, 4)
	d.Update(3, 100)
	d.Update(200, 50)
	if d.N() != 150 {
		t.Fatalf("N = %d", d.N())
	}
	if r := d.Rank(3); r == 0 {
		t.Error("weighted mass lost")
	}
	_ = core.Item(0)
}
