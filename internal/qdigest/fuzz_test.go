package qdigest

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

func FuzzUnmarshal(f *testing.F) {
	d := NewEpsilon(10, 0.1)
	rng := gen.NewRNG(1)
	for i := 0; i < 2000; i++ {
		d.Update(rng.Uint64n(1<<10), 1)
	}
	seed, _ := d.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Digest
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		if _, err := out.MarshalBinary(); err != nil {
			t.Fatalf("accepted frame failed to re-marshal: %v", err)
		}
	})
}

// FuzzMergeRoundTrip builds two compatible digests from the fuzzed
// byte streams, merges them, and checks the result keeps the q-digest
// property, encodes to the bytes of the oracle's loop-to-fixpoint
// Compress, and survives a codec round-trip unchanged.
func FuzzMergeRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{5})
	f.Add([]byte{}, []byte{0, 0, 255})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a, b := New(8, 5), New(8, 5)
		refA, refB := newRef(8, 5), newRef(8, 5)
		for _, v := range ra {
			a.Update(uint64(v), 1)
			refA.Update(uint64(v), 1)
		}
		for _, v := range rb {
			b.Update(uint64(v), 1)
			refB.Update(uint64(v), 1)
		}
		n := a.N() + b.N()
		if err := a.Merge(b); err != nil {
			t.Fatalf("merge of compatible digests failed: %v", err)
		}
		if a.N() != n {
			t.Fatalf("merged n=%d, want %d", a.N(), n)
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("merged digest violates q-digest property: %v", err)
		}
		data, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := refA.Merge(refB); err != nil {
			t.Fatal(err)
		}
		if want, _ := refA.MarshalBinary(); !bytes.Equal(data, want) {
			t.Fatal("merged frame differs from the fixpoint oracle's")
		}
		var got Digest
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("round-trip rejected own frame: %v", err)
		}
		if got.N() != a.N() || got.Size() != a.Size() {
			t.Fatalf("round-trip changed digest: n %d->%d, size %d->%d", a.N(), got.N(), a.Size(), got.Size())
		}
		for _, q := range []uint64{0, 100, 255} {
			if got.Rank(q) != a.Rank(q) {
				t.Fatalf("round-trip changed Rank(%d)", q)
			}
		}
	})
}
