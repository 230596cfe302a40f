package core

import (
	"fmt"
	"math/bits"
)

// fibMul is the 64-bit Fibonacci hashing multiplier (the odd integer
// nearest 2^64/φ): the high bits of key·fibMul spread dense, strided
// and already-hashed keys alike over a power-of-two table.
const fibMul = 0x9E3779B97F4A7C15

// minIndexSlots is the smallest table an Index holds.
const minIndexSlots = 16

// Index is the one item-keyed table under the summaries: it maps a
// uint64 key to an int32 position in its caller's own value arrays
// (counters, entry slots, pending runs), which stay structure-of-arrays
// in the caller — the frequent-items layout of Anderson et al. (see
// PAPERS.md), one hash map under every weighted update.
//
// The table is open-addressed: Fibonacci hashing, linear probing, load
// at most 5/8 (a constant, not a parameter), and backward-shift
// deletion, so probe chains never hold tombstones. A slot is empty when
// its stored position is zero (positions are stored plus one), so every
// key, 0 included, is an ordinary key. The zero value is an empty
// Index. Not safe for concurrent use.
type Index struct {
	slots []indexSlot
	shift uint // 64 − log2(len(slots))
	n     int
	spill []indexSlot // Reserve's scratch: the keys, while the table grows in place
}

// indexSlot is one table slot; its storage beyond len(slots) is all
// zero, so a table can be resliced into it without clearing.
type indexSlot struct {
	key uint64
	pos int32 // 1 + the caller's position; 0 marks the slot empty
}

// Len returns the number of keys held.
func (x *Index) Len() int { return x.n }

// Cap returns the number of slots x's storage holds, the footprint a
// pool decides by.
func (x *Index) Cap() int { return cap(x.slots) }

// Find returns key's position, or −1 when key is absent.
func (x *Index) Find(key uint64) int32 {
	if x.n == 0 {
		return -1
	}
	_, p := x.Slot(key)
	return p
}

// Slot returns the slot holding key and key's position, or the empty
// slot where key belongs and −1. The table must have been sized (Reset,
// Reserve or an insertion); a find-or-insert loop fills an empty slot
// with Put.
func (x *Index) Slot(key uint64) (int, int32) {
	slots := x.slots
	mask := len(slots) - 1
	i := int(key*fibMul>>x.shift) & mask
	for {
		if s := slots[i]; s.pos == 0 || s.key == key {
			return i, s.pos - 1
		}
		i = (i + 1) & mask
	}
}

// Room returns how many more keys fit before the table must grow.
func (x *Index) Room() int { return 5*len(x.slots)/8 - x.n }

// Put stores key → pos in slot i, which Slot returned for key as
// empty. Put never grows the table, so a find-or-insert loop inlines
// whole: the caller makes room first (Reserve, and at most Room puts
// after it). Insert grows as it goes.
func (x *Index) Put(i int, key uint64, pos int32) {
	x.slots[i] = indexSlot{key: key, pos: pos + 1}
	x.n++
}

// Insert stores key → pos; key must be absent.
func (x *Index) Insert(key uint64, pos int32) {
	if x.Room() == 0 {
		x.Reserve(x.n + 1)
	}
	i, _ := x.Slot(key)
	x.Put(i, key, pos)
}

// Delete removes key if it is present. The keys after it in its probe
// chain move back into the hole unless their home lies cyclically
// after it, so no chain is ever split.
func (x *Index) Delete(key uint64) {
	if x.n == 0 {
		return
	}
	i, p := x.Slot(key)
	if p < 0 {
		return
	}
	slots, shift := x.slots, x.shift
	mask := len(slots) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := slots[j]
		if s.pos == 0 {
			break
		}
		if home := int(s.key * fibMul >> shift); (j-home)&mask >= (j-i)&mask {
			slots[i] = s
			i = j
		}
	}
	slots[i] = indexSlot{}
	x.n--
}

// Reset empties x and sizes it for n keys, in the storage it has when
// that is large enough. The cost is the table x last held, not the
// largest one it ever did.
func (x *Index) Reset(n int) {
	clear(x.slots)
	x.n = 0
	x.resize(indexSlots(n))
}

// Reserve makes room for n keys without further growth, keeping the
// keys x holds. The table grows into its own storage when that is large
// enough (a Reset may have shrunk it), so a reused Index allocates
// nothing in steady state.
func (x *Index) Reserve(n int) {
	if fits(n, len(x.slots)) {
		return
	}
	old := x.slots
	if cap(old) >= indexSlots(n) {
		x.spill = x.spill[:0]
		for _, s := range old {
			if s.pos != 0 {
				x.spill = append(x.spill, s)
			}
		}
		old = x.spill
		clear(x.slots)
	} else {
		x.slots = nil
	}
	x.resize(indexSlots(n))
	for _, s := range old {
		if s.pos != 0 {
			i, _ := x.Slot(s.key)
			x.slots[i] = s
		}
	}
}

// fits reports whether n keys keep a table of size slots at load at
// most 5/8.
func fits(n, size int) bool { return 8*n <= 5*size }

// indexSlots is the table length for n keys at load at most 5/8.
func indexSlots(n int) int {
	size := minIndexSlots
	for !fits(n, size) {
		size <<= 1
	}
	return size
}

// resize gives x an all-empty table of size slots, in its own storage
// when that is large enough.
func (x *Index) resize(size int) {
	if cap(x.slots) >= size {
		x.slots = x.slots[:size]
	} else {
		x.slots = make([]indexSlot, size)
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// Check verifies the table: a power-of-two size at load at most 5/8,
// exactly Len occupied slots, every key reachable from its home slot
// with no empty slot on the way, no key twice, and the storage beyond
// the table empty. The invariant layers of the families built on Index
// call it.
func (x *Index) Check() error {
	size := len(x.slots)
	if size == 0 {
		if x.n != 0 {
			return fmt.Errorf("index: %d keys in an empty table", x.n)
		}
		return nil
	}
	if size&(size-1) != 0 || x.shift != uint(64-bits.TrailingZeros(uint(size))) {
		return fmt.Errorf("index: table of %d slots with shift %d", size, x.shift)
	}
	if !fits(x.n, size) {
		return fmt.Errorf("index: %d keys overload %d slots", x.n, size)
	}
	mask := size - 1
	occupied := 0
	for i, s := range x.slots {
		if s.pos == 0 {
			continue
		}
		occupied++
		if s.pos < 0 {
			return fmt.Errorf("index: key %d holds negative position %d", s.key, s.pos-1)
		}
		for j := int(s.key * fibMul >> x.shift); j != i; j = (j + 1) & mask {
			switch {
			case x.slots[j].pos == 0:
				return fmt.Errorf("index: key %d in slot %d is cut off from its home by empty slot %d", s.key, i, j)
			case x.slots[j].key == s.key:
				return fmt.Errorf("index: key %d held in slots %d and %d", s.key, j, i)
			}
		}
	}
	if occupied != x.n {
		return fmt.Errorf("index: %d slots occupied, Len says %d", occupied, x.n)
	}
	for _, s := range x.slots[size:cap(x.slots)] {
		if s.pos != 0 {
			return fmt.Errorf("index: key %d left in storage beyond the table", s.key)
		}
	}
	return nil
}
