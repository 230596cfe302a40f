package countsketch

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"width":       func() { New(0, 2, 1) },
		"depth":       func() { New(2, 0, 1) },
		"zero-weight": func() { New(8, 2, 1).Update(1, 0) },
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

func TestHeavyItemsAccurate(t *testing.T) {
	const n = 200000
	stream := gen.NewZipf(5000, 1.4, 3).Stream(n)
	truth := exact.FreqOf(stream)
	s := New(1024, 5, 7)
	for _, x := range stream {
		s.Update(x, 1)
	}
	if s.N() != n {
		t.Fatalf("N = %d", s.N())
	}
	// L2-based error: compute ||f||_2 and allow 3*||f||_2/sqrt(width)
	// per estimate on the heavy items.
	var l2 float64
	for _, c := range truth.Counters() {
		l2 += float64(c.Count) * float64(c.Count)
	}
	bound := 3 * math.Sqrt(l2) / math.Sqrt(1024)
	for _, c := range truth.Counters()[:50] {
		est := float64(s.Estimate(c.Item).Value)
		if math.Abs(est-float64(c.Count)) > bound {
			t.Errorf("item %d: |%v - %d| > %v", c.Item, est, c.Count, bound)
		}
	}
}

func TestUnbiasedOnAbsentItems(t *testing.T) {
	const n = 50000
	stream := gen.NewZipf(1000, 1.2, 9).Stream(n)
	s := New(2048, 5, 3)
	for _, x := range stream {
		s.Update(x, 1)
	}
	// Items far outside the universe should estimate near zero.
	var sum uint64
	for x := core.Item(1 << 40); x < 1<<40+100; x++ {
		sum += s.Estimate(x).Value
	}
	if avg := float64(sum) / 100; avg > float64(n)/100 {
		t.Errorf("absent items average estimate %v, want near 0", avg)
	}
}

func TestMergeLinearity(t *testing.T) {
	const n = 60000
	stream := gen.NewZipf(1000, 1.4, 2).Stream(n)
	parts := gen.PartitionRoundRobin(stream, 5)
	whole := New(256, 3, 1)
	for _, x := range stream {
		whole.Update(x, 1)
	}
	merged := New(256, 3, 1)
	for _, p := range parts {
		s := New(256, 3, 1)
		for _, x := range p {
			s.Update(x, 1)
		}
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []core.Item{0, 3, 42, 999} {
		if merged.Estimate(x) != whole.Estimate(x) {
			t.Fatalf("estimate of %d differs after merge", x)
		}
	}
}

func TestMergeMismatched(t *testing.T) {
	a := New(128, 4, 1)
	for _, b := range []*Sketch{New(64, 4, 1), New(128, 3, 1), New(128, 4, 2)} {
		if err := a.Merge(b); err == nil {
			t.Error("mismatched sketch accepted")
		}
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New(64, 3, 1)
	s.Update(1, 10)
	c := s.Clone()
	c.Update(1, 5)
	if s.Estimate(1).Value != 10 || c.Estimate(1).Value != 15 {
		t.Fatal("clone not independent")
	}
	s.Reset()
	if s.N() != 0 || s.Estimate(1).Value != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := New(128, 5, 9)
	for _, x := range gen.NewZipf(500, 1.1, 6).Stream(20000) {
		s.Update(x, 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Width() != s.Width() || got.Depth() != s.Depth() {
		t.Fatal("header changed")
	}
	for x := core.Item(0); x < 500; x++ {
		if got.Estimate(x) != s.Estimate(x) {
			t.Fatalf("estimate of %d differs", x)
		}
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

// The batch path reduces the bucket hash without dividing and adds the
// sign without branching; cell by cell it must land where Update's
// cell() and sign() do — on the canonical power-of-two width, on
// widths that are not, on the degenerate single column, and on either
// side of the 2^17 limit above which the division stays (at 5·2^16 the
// multiply-high remainder is wrong for every hash of 2^46 and up).
func TestBatchMatchesPerItem(t *testing.T) {
	rng := gen.NewRNG(3)
	xs := make([]core.Item, 5000)
	for i := range xs {
		x := core.Item(rng.Uint64())
		switch i % 4 {
		case 1:
			x >>= 40 // small ids, as streams have them
		case 2:
			x |= 0xffff << 48
		}
		xs[i] = x
	}
	for _, width := range []int{512, 500, 1, 3, 1<<17 - 1, 1 << 17, 1<<17 + 1, 5 << 16} {
		loop, batch := New(width, 3, 9), New(width, 3, 9)
		for _, x := range xs {
			loop.Update(x, 1)
		}
		batch.UpdateBatch(xs)
		want, _ := loop.MarshalBinary()
		got, _ := batch.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Errorf("width %d: batch frame differs from per-item frame", width)
		}
	}
}

// refEstimate is the point query estimate replaced: every row's signed
// estimate sorted, the middle one (or the mean of the two middle ones)
// taken, clamped at 0.
func refEstimate(s *Sketch, x core.Item) uint64 {
	ests := make([]int64, s.depth)
	for i := range ests {
		ests[i] = s.sign(i, x) * s.rows[i][s.cell(i, x)]
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i] < ests[j] })
	med := ests[s.depth/2]
	if s.depth%2 == 0 {
		med = (ests[s.depth/2-1] + med) / 2
	}
	return uint64(max(med, 0))
}

// TestEstimateMatchesSort: the selected median is the sorted one, at
// every depth from 1 to 8 (odd and even), over queried items whose row
// estimates are positive, negative and tied — the sign collisions of a
// narrow sketch over a skewed stream make all three.
func TestEstimateMatchesSort(t *testing.T) {
	for depth := 1; depth <= 8; depth++ {
		s := New(16, depth, uint64(depth))
		s.UpdateBatch(gen.NewZipf(500, 1.1, uint64(depth)).Stream(5000))
		for x := core.Item(0); x < 600; x++ {
			if got, want := s.Estimate(x).Value, refEstimate(s, x); got != want {
				t.Fatalf("depth %d, item %d: estimate %d, sorted median %d", depth, x, got, want)
			}
		}
	}
}

// TestEstimateAllocatesNothing: once the lender holds a run of the
// sketch's depth, a point query allocates nothing.
func TestEstimateAllocatesNothing(t *testing.T) {
	s := New(256, 5, 1)
	s.UpdateBatch(gen.NewZipf(1000, 1.1, 1).Stream(10000))
	_ = s.Estimate(3)
	if a := testing.AllocsPerRun(100, func() { _ = s.Estimate(3) }); a != 0 {
		t.Errorf("Estimate: %v allocs", a)
	}
}
