package distinct

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"kmv k=1":  func() { NewKMV(1, 1) },
		"hll p=3":  func() { NewHLL(3, 1) },
		"hll p=19": func() { NewHLL(19, 1) },
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

func TestKMVExactWhenSmall(t *testing.T) {
	s := NewKMV(64, 1)
	for i := 0; i < 40; i++ {
		s.Update(core.Item(i))
		s.Update(core.Item(i)) // duplicates must not count
	}
	if got := s.Estimate(); got != 40 {
		t.Errorf("Estimate = %v, want exact 40", got)
	}
	if s.N() != 80 {
		t.Errorf("N = %d", s.N())
	}
}

func TestKMVAccuracy(t *testing.T) {
	const distinct = 100000
	for _, k := range []int{256, 1024} {
		s := NewKMV(k, 7)
		// Each item appears a variable number of times.
		rng := gen.NewRNG(3)
		for i := 0; i < distinct; i++ {
			reps := 1 + rng.Intn(3)
			for r := 0; r < reps; r++ {
				s.Update(core.Item(i))
			}
		}
		got := s.Estimate()
		relErr := math.Abs(got-distinct) / distinct
		// 5 sigma of 1/sqrt(k-2).
		if relErr > 5/math.Sqrt(float64(k-2)) {
			t.Errorf("k=%d: estimate %v, rel err %v too large", k, got, relErr)
		}
	}
}

// Mergeability: the merge is exactly the KMV of the union.
func TestKMVMergeIsUnion(t *testing.T) {
	a, b := NewKMV(128, 9), NewKMV(128, 9)
	whole := NewKMV(128, 9)
	for i := 0; i < 5000; i++ {
		x := core.Item(i)
		if i%2 == 0 {
			a.Update(x)
		} else {
			b.Update(x)
		}
		whole.Update(x)
	}
	// Overlap: both sides see some shared items.
	for i := 0; i < 500; i++ {
		a.Update(core.Item(i))
		b.Update(core.Item(i))
		whole.Update(core.Item(i))
		whole.Update(core.Item(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	ah, wh := a.Hashes(), whole.Hashes()
	if len(ah) != len(wh) {
		t.Fatalf("merged has %d hashes, whole has %d", len(ah), len(wh))
	}
	for i := range ah {
		if ah[i] != wh[i] {
			t.Fatalf("hash %d differs: %d vs %d", i, ah[i], wh[i])
		}
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatal("merged estimate differs from whole-stream estimate")
	}
}

func TestKMVMergeMismatched(t *testing.T) {
	a := NewKMV(64, 1)
	if err := a.Merge(NewKMV(128, 1)); err == nil {
		t.Error("mismatched k accepted")
	}
	if err := a.Merge(NewKMV(64, 2)); err == nil {
		t.Error("mismatched seed accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestKMVCodecRoundTrip(t *testing.T) {
	s := NewKMV(64, 5)
	for i := 0; i < 10000; i++ {
		s.Update(core.Item(i % 3000))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got KMV
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() || got.N() != s.N() || got.Size() != s.Size() {
		t.Fatal("round trip changed state")
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestHLLAccuracy(t *testing.T) {
	const distinct = 200000
	for _, p := range []uint8{10, 14} {
		s := NewHLL(p, 3)
		for i := 0; i < distinct; i++ {
			s.Update(core.Item(i))
			if i%3 == 0 {
				s.Update(core.Item(i)) // duplicates
			}
		}
		got := s.Estimate()
		relErr := math.Abs(got-distinct) / distinct
		if relErr > 5*1.04/math.Sqrt(float64(uint64(1)<<p)) {
			t.Errorf("p=%d: estimate %v, rel err %v too large", p, got, relErr)
		}
	}
}

func TestHLLSmallRange(t *testing.T) {
	s := NewHLL(12, 1)
	for i := 0; i < 100; i++ {
		s.Update(core.Item(i))
	}
	got := s.Estimate()
	if math.Abs(got-100) > 10 {
		t.Errorf("small-range estimate %v, want ~100", got)
	}
}

// HLL merge is idempotent: merging a summary with itself changes
// nothing but N.
func TestHLLMergeIdempotent(t *testing.T) {
	s := NewHLL(10, 2)
	for i := 0; i < 10000; i++ {
		s.Update(core.Item(i))
	}
	before := s.Estimate()
	c := s.Clone()
	if err := s.Merge(c); err != nil {
		t.Fatal(err)
	}
	if s.Estimate() != before {
		t.Error("self-merge changed the estimate")
	}
}

// HLL mergeability: merged registers equal whole-stream registers.
func TestHLLMergeEqualsWhole(t *testing.T) {
	a, b, whole := NewHLL(12, 7), NewHLL(12, 7), NewHLL(12, 7)
	for i := 0; i < 50000; i++ {
		x := core.Item(i * 3)
		whole.Update(x)
		if i%2 == 0 {
			a.Update(x)
		} else {
			b.Update(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("merged estimate %v != whole %v", a.Estimate(), whole.Estimate())
	}
}

func TestHLLMergeMismatched(t *testing.T) {
	a := NewHLL(10, 1)
	if err := a.Merge(NewHLL(11, 1)); err == nil {
		t.Error("mismatched p accepted")
	}
	if err := a.Merge(NewHLL(10, 2)); err == nil {
		t.Error("mismatched seed accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestHLLCodecRoundTrip(t *testing.T) {
	s := NewHLL(10, 5)
	for i := 0; i < 30000; i++ {
		s.Update(core.Item(i))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got HLL
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() || got.N() != s.N() {
		t.Fatal("round trip changed state")
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestCodecKindSeparation(t *testing.T) {
	kmvData, _ := NewKMV(8, 1).MarshalBinary()
	hllData, _ := NewHLL(8, 1).MarshalBinary()
	var k KMV
	if err := k.UnmarshalBinary(hllData); err == nil {
		t.Error("KMV decoded an HLL frame")
	}
	var h HLL
	if err := h.UnmarshalBinary(kmvData); err == nil {
		t.Error("HLL decoded a KMV frame")
	}
}

// Property: for any partition of a distinct-item set into two streams,
// KMV merge equals the whole-stream KMV (hash-for-hash).
func TestKMVMergeProperty(t *testing.T) {
	f := func(items []uint32, split uint8) bool {
		a, b, whole := NewKMV(32, 11), NewKMV(32, 11), NewKMV(32, 11)
		for i, raw := range items {
			x := core.Item(raw)
			whole.Update(x)
			if uint8(i)%16 < split%16+1 {
				a.Update(x)
			} else {
				b.Update(x)
			}
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		ah, wh := a.Hashes(), whole.Hashes()
		if len(ah) != len(wh) {
			return false
		}
		for i := range ah {
			if ah[i] != wh[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hllFrame encodes an HLL of precision p whose register i holds regs(i),
// written by hand: the encoder only writes what Update can reach.
func hllFrame(p int, regs func(i int) uint8) []byte {
	var w codec.Buffer
	w.Bool(true)
	w.Int(p)
	w.Uint64(1) // seed
	w.Uint64(9) // n
	for i := 0; i < 1<<p; i++ {
		w.Uint64(uint64(regs(i)))
	}
	return codec.EncodeFrame(codec.KindHLL, w.Bytes())
}

// TestHLLRejectsRegisterAboveMaxRho: a register is at most 65−p, the
// largest rho Update can write; a frame holding one above that is
// refused, at every precision, and leaves a reused receiver empty.
func TestHLLRejectsRegisterAboveMaxRho(t *testing.T) {
	for p := 4; p <= 18; p++ {
		top := uint8(65 - p)
		at := func(v uint8) func(int) uint8 {
			return func(i int) uint8 {
				if i == 1<<p-3 {
					return v
				}
				return uint8(i % 5)
			}
		}
		var s HLL
		if err := s.UnmarshalBinary(hllFrame(p, at(top))); err != nil {
			t.Fatalf("p=%d: register %d refused: %v", p, top, err)
		}
		for _, v := range []uint8{top + 1, 64, 127} {
			if err := s.UnmarshalBinary(hllFrame(p, at(v))); err == nil {
				t.Fatalf("p=%d: register %d (max %d) accepted", p, v, top)
			}
			if s.N() != 0 || slices.ContainsFunc(s.regs, func(r uint8) bool { return r != 0 }) {
				t.Fatalf("p=%d: a refused frame left n=%d and registers behind", p, s.N())
			}
		}
	}
}

// TestHLLMergeMatchesByteLoop: the eight-registers-a-step merge is the
// register-wise max of the byte loop at every precision, registers at
// 65−p included, on both sides of each comparison.
func TestHLLMergeMatchesByteLoop(t *testing.T) {
	rng := gen.NewRNG(17)
	for p := uint8(4); p <= 18; p++ {
		top := maxRho(p)
		for round := 0; round < 4; round++ {
			a, b := NewHLL(p, 3), NewHLL(p, 3)
			for i := range a.regs {
				a.regs[i] = uint8(rng.Uint64() % uint64(top+1))
				b.regs[i] = uint8(rng.Uint64() % uint64(top+1))
				switch rng.Uint64() % 8 {
				case 0:
					a.regs[i] = top
				case 1:
					b.regs[i] = top
				case 2:
					a.regs[i] = b.regs[i]
				}
			}
			want := slices.Clone(a.regs)
			for i, r := range b.regs {
				want[i] = max(want[i], r)
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.regs, want) {
				t.Fatalf("p=%d: merged registers differ from the byte loop's max", p)
			}
		}
	}
}
