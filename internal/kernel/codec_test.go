package kernel

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
)

func TestCodecRoundTrip(t *testing.T) {
	k := New(24)
	for _, p := range gen.RingPoints(2000, 1.5, 0.05, 7) {
		k.Update(p)
	}
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Kernel
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != k.N() || got.Directions() != k.Directions() || got.Size() != k.Size() {
		t.Fatal("round trip changed header")
	}
	for i := 0; i < 2*24; i++ {
		wv, wok := k.GridSupport(i)
		gv, gok := got.GridSupport(i)
		if wok != gok || wv != gv {
			t.Fatalf("slot %d differs after round trip", i)
		}
	}
	for _, theta := range []float64{0, 0.5, 1.2, math.Pi - 0.1} {
		if got.Width(theta) != k.Width(theta) {
			t.Fatalf("width differs at theta=%v", theta)
		}
	}
	// Decoded kernels keep merging.
	other := New(24)
	other.Update(gen.Point{X: 100, Y: 0})
	if err := got.Merge(other); err != nil {
		t.Fatal(err)
	}
	if got.Width(0) <= k.Width(0) {
		t.Fatal("merge after decode had no effect")
	}
}

func TestCodecEmptyKernel(t *testing.T) {
	k := New(4)
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Kernel
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 || got.N() != 0 {
		t.Fatal("empty round trip not empty")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	k := New(4)
	k.Update(gen.Point{X: 1, Y: 2})
	data, _ := k.MarshalBinary()
	data[len(data)-5] ^= 0xff
	var got Kernel
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	// A kernel fills every slot with its first point: a frame of n > 0
	// with an empty slot, or of n = 0 with a filled one, is refused.
	for name, spoil := range map[string]func(k *Kernel){
		"empty slot": func(k *Kernel) { k.has[3] = false },
		"n of 0":     func(k *Kernel) { k.n = 0 },
		"n of 1":     func(k *Kernel) { k.Reset(); k.n = 1 },
	} {
		k := New(4)
		k.Update(gen.Point{X: 1, Y: 2})
		spoil(k)
		data, _ := k.MarshalBinary()
		if err := new(Kernel).UnmarshalBinary(data); err == nil {
			t.Fatalf("%s: frame accepted", name)
		}
	}
}

// TestDecodeCostsWhatTheFrameHolds: decoding a frame allocates at most
// twice its length, plus a constant. An empty kernel's frame holds one
// byte per slot and makes its receiver store no slot; a frame of n > 0
// holds 25 bytes for each of the 33 a slot and its share of the
// direction grid take. The receiver is fresh, or one that has already
// decoded a frame, as a pooled one has.
func TestDecodeCostsWhatTheFrameHolds(t *testing.T) {
	frame := func(m int, n uint64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Int(m)
		w.Uint64(n)
		for slot := range 2 * m {
			w.Bool(n != 0)
			if n != 0 {
				x := float64(slot)
				w.Float64(x)
				w.Float64(-x)
				w.Float64(2 * x)
			}
		}
		return codec.EncodeFrame(codec.KindKernel, w.Bytes())
	}
	pooled := new(Kernel)
	if err := pooled.UnmarshalBinary(frame(8, 1)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1 << 10, 1 << 16, 1 << 20} {
		for _, n := range []uint64{0, 1} {
			data := frame(m, n)
			for _, into := range []struct {
				name string
				k    *Kernel
			}{{"fresh", new(Kernel)}, {"pooled", pooled}} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := into.k.UnmarshalBinary(data)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("m=%d n=%d: %v", m, n, err)
				}
				if got, most := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(data))+64<<10; got > most {
					t.Errorf("m=%d n=%d, %s receiver: decoding a %d B frame allocated %d B, more than %d", m, n, into.name, len(data), got, most)
				}
			}
		}
	}
}

func FuzzUnmarshal(f *testing.F) {
	k := New(8)
	for _, p := range gen.UniformPoints(100, 1) {
		k.Update(p)
	}
	seed, _ := k.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Kernel
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted frames must round-trip to a canonical fixpoint:
		// re-encode, decode, re-encode byte-identically.
		canon, err := out.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame failed to re-marshal: %v", err)
		}
		var again Kernel
		if err := again.UnmarshalBinary(canon); err != nil {
			t.Fatalf("re-marshaled frame rejected: %v", err)
		}
		canon2, err := again.MarshalBinary()
		if err != nil {
			t.Fatalf("second re-marshal: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatal("encode/decode/encode is not a fixpoint")
		}
	})
}
