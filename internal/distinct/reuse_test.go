package distinct

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// TestUnmarshalReusesReceiver: an HLL of any precision and seed, and a
// KMV of any k and seed (with or without its membership set built),
// decodes a frame of any other into its own storage and is then
// indistinguishable from a fresh decode, now and after further updates.
func TestUnmarshalReusesReceiver(t *testing.T) {
	hlls := []*HLL{NewHLL(4, 1), NewHLL(12, 1), NewHLL(12, 2), NewHLL(14, 3)}
	kmvs := []*KMV{NewKMV(2, 1), NewKMV(64, 1), NewKMV(64, 2), NewKMV(256, 3)}
	for i := range hlls {
		for x := 0; x < 3000*(i+1); x++ {
			hlls[i].Update(core.Item(x))
			kmvs[i].Update(core.Item(x))
		}
	}
	for i := range hlls {
		for j := range hlls {
			hf, _ := hlls[j].MarshalBinary()
			kf, _ := kmvs[j].MarshalBinary()
			rh, fh := hlls[i].Clone(), new(HLL)
			rk, fk := kmvs[i].Clone(), new(KMV)
			if j%2 == 0 {
				// A receiver that was itself decoded: its map is stale.
				own, _ := kmvs[i].MarshalBinary()
				if err := rk.UnmarshalBinary(own); err != nil {
					t.Fatal(err)
				}
			}
			for _, err := range []error{rh.UnmarshalBinary(hf), fh.UnmarshalBinary(hf), rk.UnmarshalBinary(kf), fk.UnmarshalBinary(kf)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			for x := 100000; x < 103000; x++ {
				rh.Update(core.Item(x))
				fh.Update(core.Item(x))
				rk.Update(core.Item(x % 101500)) // repeats: offer must see them as members
				fk.Update(core.Item(x % 101500))
			}
			a, _ := rh.MarshalBinary()
			b, _ := fh.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("hll %d decoded into hll %d: diverges from a fresh decode", j, i)
			}
			a, _ = rk.MarshalBinary()
			b, _ = fk.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("kmv %d decoded into kmv %d: diverges from a fresh decode", j, i)
			}
		}
	}
}

// TestHLLRejectsPaddedRegisters: a register is at most 64, one byte on
// the wire; the two-byte form of the same value, which the encoder
// never writes, is not accepted in its place.
func TestHLLRejectsPaddedRegisters(t *testing.T) {
	var w codec.Buffer
	w.Bool(true)
	w.Int(4)
	w.Uint64(1)
	w.Uint64(0)
	payload := append([]byte(nil), w.Bytes()...)
	canonical := append(append([]byte(nil), payload...), make([]byte, 16)...)
	canonical[len(payload)] = 5
	if err := new(HLL).UnmarshalBinary(codec.EncodeFrame(codec.KindHLL, canonical)); err != nil {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	padded := append(append([]byte(nil), payload...), 0x85, 0x00) // 5, in two bytes
	padded = append(padded, make([]byte, 15)...)
	if err := new(HLL).UnmarshalBinary(codec.EncodeFrame(codec.KindHLL, padded)); err == nil {
		t.Fatal("two-byte register encoding accepted")
	}
}

// TestKMVFrameKDoesNotSizeAllocation: a frame may claim any k; what is
// allocated follows the hashes that actually arrived.
func TestKMVFrameKDoesNotSizeAllocation(t *testing.T) {
	var w codec.Buffer
	w.Bool(false)
	w.Int(1 << 30)
	w.Uint64(1)
	w.Uint64(3)
	w.Int(3)
	for _, h := range []uint64{5, 7, 9} {
		w.Uint64(h)
	}
	frame := codec.EncodeFrame(codec.KindKMV, w.Bytes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s KMV
	if err := s.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	s.Update(1) // builds the membership set
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("decoding a 3-hash frame claiming k=2^30 allocated %d bytes", grew)
	}
}
