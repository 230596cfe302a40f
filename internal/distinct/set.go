package distinct

import "math/bits"

// hashSet is KMV's membership index: an open-addressed set of 64-bit
// hash values, keyed by the value itself (Fibonacci hashing — the kept
// values are the smallest, so their own high bits are all zero — and
// linear probing at load at most 1/2, backward-shift deletion so probe
// chains stay tombstone-free). Zero marks an empty slot; the one hash
// that is zero is held in a flag beside the table.
type hashSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots))
	n     int  // values in slots
	zero  bool
}

// setFib is the 64-bit Fibonacci hashing multiplier.
const setFib = 0x9E3779B97F4A7C15

// reset empties s and sizes it for n values, in the storage it has when
// that is large enough.
func (s *hashSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(s.slots) >= size {
		s.slots = s.slots[:size]
		clear(s.slots)
	} else {
		s.slots = make([]uint64, size)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n, s.zero = 0, false
}

// size returns the number of values held.
func (s *hashSet) size() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// find returns x's slot, or the empty slot where it belongs; x != 0.
func (s *hashSet) find(x uint64) int {
	mask := len(s.slots) - 1
	i := int(x * setFib >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != x {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether x is in the set.
func (s *hashSet) has(x uint64) bool {
	if x == 0 {
		return s.zero
	}
	return s.slots[s.find(x)] != 0
}

// add inserts x, which must be absent, growing the table as needed.
func (s *hashSet) add(x uint64) {
	if x == 0 {
		s.zero = true
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	s.slots[s.find(x)] = x
	s.n++
}

// grow doubles the table, keeping its contents.
func (s *hashSet) grow() {
	old, zero := s.slots, s.zero
	s.slots = nil // the old table is read below: grow into new storage
	s.reset(len(old))
	for _, y := range old {
		if y != 0 {
			s.slots[s.find(y)] = y
			s.n++
		}
	}
	s.zero = zero
}

// remove deletes x, which must be present.
func (s *hashSet) remove(x uint64) {
	if x == 0 {
		s.zero = false
		return
	}
	mask := len(s.slots) - 1
	i := s.find(x)
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// Move j's value back into the hole iff its home slot does not
		// lie cyclically in (i, j]: the hole must not split its chain.
		home := int(s.slots[j] * setFib >> s.shift)
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	s.n--
}
