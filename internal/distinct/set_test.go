package distinct

import (
	"testing"

	"repro/internal/gen"
)

// TestHashSetMatchesMap drives the KMV membership set through random
// adds and removes — zero among them, small values that share their
// high bits as KMV's kept hashes do, growth from the empty set — and
// holds every answer to a map's.
func TestHashSetMatchesMap(t *testing.T) {
	rng := gen.NewRNG(7)
	var s hashSet
	want := make(map[uint64]bool)
	for step := 0; step < 200000; step++ {
		x := rng.Uint64() % 3000
		if step%7 == 0 {
			x = rng.Uint64() // a full-width value now and then
		}
		switch {
		case want[x] && rng.Uint64()%3 == 0:
			s.remove(x)
			delete(want, x)
		case !want[x]:
			s.add(x)
			want[x] = true
		}
		if s.has(x) != want[x] || s.size() != len(want) {
			t.Fatalf("step %d, value %d: has=%v size=%d, map says %v and %d", step, x, s.has(x), s.size(), want[x], len(want))
		}
	}
	for x := range want {
		if !s.has(x) {
			t.Fatalf("value %d lost", x)
		}
	}
	for x := uint64(0); x < 3000; x++ {
		if s.has(x) != want[x] {
			t.Fatalf("value %d: has=%v, map says %v", x, s.has(x), want[x])
		}
	}
	s.reset(4)
	if s.size() != 0 || s.has(0) || s.has(1) {
		t.Fatal("reset left values behind")
	}
}
