package sampling

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

func FuzzUnmarshal(f *testing.F) {
	s := NewBottomK(16, 1)
	for _, v := range gen.UniformValues(200, 1) {
		s.Update(v)
	}
	seed, _ := s.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out BottomK
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		if uint64(out.Size()) != min(uint64(out.K()), out.N()) {
			t.Fatalf("accepted frame holds %d samples, not min(k=%d, n=%d)", out.Size(), out.K(), out.N())
		}
		// Accepted frames must round-trip to a canonical fixpoint:
		// re-encode, decode, re-encode byte-identically.
		canon, err := out.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame failed to re-marshal: %v", err)
		}
		var again BottomK
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
