package core

import (
	"encoding/binary"
	"testing"
)

// indexOracle drives an Index and a Go map through the same operations
// and holds every answer of the one to the other's, with the index's
// own Check after every step (every 1000th, for long runs).
type indexOracle struct {
	t     testing.TB
	x     Index
	want  map[uint64]int32
	steps int
	every int
}

func newIndexOracle(t testing.TB) *indexOracle {
	return &indexOracle{t: t, want: make(map[uint64]int32), every: 1}
}

func (o *indexOracle) insert(key uint64, pos int32) {
	if _, ok := o.want[key]; ok {
		return // Insert's key must be absent
	}
	o.x.Insert(key, pos)
	o.want[key] = pos
	o.check(key)
}

// put inserts through the find-or-insert pair a probe loop uses.
func (o *indexOracle) put(key uint64, pos int32) {
	if o.x.Room() == 0 {
		o.x.Reserve(o.x.Len() + 1)
	}
	i, p := o.x.Slot(key)
	if p >= 0 {
		if want, ok := o.want[key]; !ok || p != want {
			o.t.Fatalf("key %d: slot %d holds %d, map says %d, %v", key, i, p, want, ok)
		}
		return
	}
	o.x.Put(i, key, pos)
	o.want[key] = pos
	o.check(key)
}

func (o *indexOracle) delete(key uint64) {
	o.x.Delete(key)
	delete(o.want, key)
	o.check(key)
}

func (o *indexOracle) reset(n int) {
	o.x.Reset(n)
	clear(o.want)
	o.check(0)
}

func (o *indexOracle) check(key uint64) {
	o.t.Helper()
	if o.steps++; o.steps%o.every == 0 {
		if err := o.x.Check(); err != nil {
			o.t.Fatal(err)
		}
	}
	want, ok := o.want[key]
	if !ok {
		want = -1
	}
	if got := o.x.Find(key); got != want || o.x.Len() != len(o.want) {
		o.t.Fatalf("key %d: Find %d, Len %d; map says %d, %d", key, got, o.x.Len(), want, len(o.want))
	}
}

func (o *indexOracle) checkAll() {
	o.t.Helper()
	for k, want := range o.want {
		if got := o.x.Find(k); got != want {
			o.t.Fatalf("key %d lost: Find %d, want %d", k, got, want)
		}
	}
}

// homeKeys returns n keys whose home slot in a table of size slots is
// home: where Slot puts them in an empty table.
func homeKeys(size, home, n int) []uint64 {
	var x Index
	x.resize(size)
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if i, _ := x.Slot(k); i == home {
			out = append(out, k)
		}
	}
	return out
}

// TestIndexMatchesMap drives the index through random inserts, deletes
// and resets — key 0 among them, small keys that share their high bits
// as KMV's kept hashes do, full-width keys now and then, growth from
// the empty table — and holds every answer to a map's.
func TestIndexMatchesMap(t *testing.T) {
	rng := xorshift(7)
	o := newIndexOracle(t)
	o.every = 1000
	for step := 0; step < 200000; step++ {
		x := rng.next() % 3000
		if step%7 == 0 {
			x = rng.next() // a full-width key now and then
		}
		switch _, held := o.want[x]; {
		case step%50000 == 49999:
			o.reset(int(x % 100))
		case held && rng.next()%3 == 0:
			o.delete(x)
		case !held && step%2 == 0:
			o.insert(x, int32(step))
		default:
			o.put(x, int32(step))
		}
	}
	o.checkAll()
	for x := uint64(0); x < 3000; x++ {
		o.check(x)
	}
}

// TestIndexWrapsTheTable: probe chains that run off the table's end
// continue at slot 0, and a backward-shift delete moves keys back
// across the wrap without splitting any chain.
func TestIndexWrapsTheTable(t *testing.T) {
	o := newIndexOracle(t)
	o.reset(0)
	size := len(o.x.slots)
	// Four keys at home in the last slot, two in the first: the chain
	// from the end wraps to slots 0–2 and shoves the first slot's keys on.
	tail, head := homeKeys(size, size-1, 4), homeKeys(size, 0, 2)
	for i, k := range append(tail, head...) {
		o.insert(k, int32(i))
	}
	if got := o.x.slots[0].key; got != tail[1] {
		t.Fatalf("slot 0 holds %d, want the wrapped key %d", got, tail[1])
	}
	o.checkAll()
	// Deleting from the chain's start pulls every key after it back one
	// slot, across the wrap; the head keys return toward home.
	o.delete(tail[0])
	o.checkAll()
	o.delete(tail[2])
	o.checkAll()
	o.delete(head[0])
	o.checkAll()
	for _, k := range append(tail, head...) {
		o.check(k)
	}
}

// TestIndexGrowsMidChain: keys that share one home fill a chain until an
// insert must grow the table; every key is found after the move, through
// both Insert and the Slot/Put pair, and a key 0 rides along.
func TestIndexGrowsMidChain(t *testing.T) {
	for _, viaPut := range []bool{false, true} {
		o := newIndexOracle(t)
		o.reset(0)
		keys := append([]uint64{0}, homeKeys(len(o.x.slots), 5, 40)...)
		for i, k := range keys {
			if viaPut {
				o.put(k, int32(i))
			} else {
				o.insert(k, int32(i))
			}
			o.checkAll()
		}
		if len(o.x.slots) < 2*len(keys) {
			t.Fatalf("%d keys in %d slots", len(keys), len(o.x.slots))
		}
	}
}

// TestIndexResetKeepsStorage: a Reset empties the index and shrinks the
// table to what the next use asks for, but keeps its storage — growing
// back into it allocates nothing, from empty or mid-fill.
func TestIndexResetKeepsStorage(t *testing.T) {
	var x Index
	for i := range 5000 {
		x.Insert(uint64(i)*0x10001, int32(i))
	}
	storage := x.Cap()
	refill := func() {
		x.Reset(0)
		for i := range 3000 {
			x.Insert(uint64(i)<<40, int32(i))
		}
	}
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("refilling a reset index: %.1f allocs, want 0", allocs)
	}
	if x.Cap() != storage || x.Len() != 3000 {
		t.Fatalf("after refill: %d slots of storage (had %d), %d keys", x.Cap(), storage, x.Len())
	}
	if err := x.Check(); err != nil {
		t.Fatal(err)
	}
	x.Reset(4)
	if x.Len() != 0 || x.Find(0) != -1 || x.Find(1<<40) != -1 || len(x.slots) != minIndexSlots {
		t.Fatal("reset left keys or table behind")
	}
	if err := x.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexCheckCatches: Check reports a duplicate key, a key cut off
// from its home and a miscount.
func TestIndexCheckCatches(t *testing.T) {
	build := func() *Index {
		x := new(Index)
		x.Reset(0)
		for i, k := range homeKeys(len(x.slots), 3, 3) {
			x.Insert(k, int32(i))
		}
		return x
	}
	x := build()
	x.slots[4].key = x.slots[3].key
	if x.Check() == nil {
		t.Error("a duplicate key passed Check")
	}
	x = build()
	x.slots[4] = indexSlot{}
	x.n--
	if x.Check() == nil {
		t.Error("a key cut off from its home passed Check")
	}
	x = build()
	x.n++
	if x.Check() == nil {
		t.Error("a miscount passed Check")
	}
}

// FuzzIndex holds the index to a map for byte programs: each 3-byte step
// picks an operation — insert, find-or-put, delete, reset — and a key
// from a small space, a space of keys sharing their high bits, a space
// of keys differing only in their high bits, or one home slot.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 7, 0, 2, 7, 0, 3, 7, 2, 1, 7, 0, 4, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		o := newIndexOracle(t)
		homes := homeKeys(minIndexSlots, minIndexSlots-1, 64)
		for i := 0; i+3 <= len(prog); i += 3 {
			op, k := prog[i]&3, binary.LittleEndian.Uint16(prog[i+1:])
			var key uint64
			switch prog[i] >> 2 & 3 {
			case 0:
				key = uint64(k & 31)
			case 1:
				key = uint64(k)
			case 2:
				key = uint64(k) << 48
			case 3:
				key = homes[k%64]
			}
			switch op {
			case 0:
				o.insert(key, int32(i))
			case 1:
				o.put(key, int32(i))
			case 2:
				o.delete(key)
			case 3:
				if prog[i]>>4 == 0 {
					o.reset(int(k % 64))
				} else {
					o.x.Reserve(int(k % 256))
					o.check(key)
				}
			}
		}
		o.checkAll()
	})
}
