package registry_test

import (
	"bytes"
	"testing"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// FuzzDecodeAnyFrame fuzzes the catalog's frame-dispatch path: the
// seed corpus is one encoded Example per registered family (so every
// kind byte and payload shape is represented without naming any family
// here) plus, per family, the emptyRuns of its empty example — long
// tables of one-byte elements behind every early length field — and
// its bigClaims — a structure of 2^28 elements claimed by every early
// size field, with none sent — and any accepted frame must decode, re-encode to a canonical
// fixpoint, and preserve its total weight. Every input is also decoded
// into a pooled scratch summary that has seen whatever the fuzzer fed
// it before — accepted frames, rejected ones, other parameters: it must
// accept exactly what a fresh receiver accepts and come out the same
// bytes.
func FuzzDecodeAnyFrame(f *testing.F) {
	for _, ent := range registry.Entries() {
		for _, n := range []int{0, 16, 512} {
			data, err := ent.Encode(ent.Example(n))
			if err != nil {
				f.Fatalf("%s: encoding example: %v", ent.Name(), err)
			}
			f.Add(data)
			if n == 0 {
				for _, h := range emptyRuns(data) {
					f.Add(h)
				}
				for _, h := range bigClaims(data) {
					f.Add(h)
				}
			}
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ent, err := registry.FromFrame(data)
		if err != nil {
			return
		}
		v, err := ent.Decode(data)
		sc := ent.GetScratch()
		defer ent.PutScratch(sc)
		if dirtyErr := ent.DecodeInto(sc, data); (dirtyErr == nil) != (err == nil) {
			t.Fatalf("%s: fresh decode: %v, pooled scratch: %v", ent.Name(), err, dirtyErr)
		}
		if err != nil {
			return
		}
		canon, err := ent.Encode(v)
		if err != nil {
			t.Fatalf("%s: accepted frame failed to re-encode: %v", ent.Name(), err)
		}
		if dirty, err := ent.Encode(sc); err != nil || !bytes.Equal(dirty, canon) {
			t.Fatalf("%s: pooled scratch decoded to different bytes than a fresh receiver (encode error: %v)", ent.Name(), err)
		}
		again, err := ent.Decode(canon)
		if err != nil {
			t.Fatalf("%s: re-encoded frame rejected: %v", ent.Name(), err)
		}
		canon2, err := ent.Encode(again)
		if err != nil {
			t.Fatalf("%s: second re-encode: %v", ent.Name(), err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("%s: encode/decode/encode is not a fixpoint", ent.Name())
		}
		if ent.N(again) != ent.N(v) {
			t.Fatalf("%s: round-trip changed N: %d -> %d", ent.Name(), ent.N(v), ent.N(again))
		}
	})
}
