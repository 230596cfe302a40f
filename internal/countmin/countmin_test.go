package countmin

import (
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

func TestNeverUnderestimates(t *testing.T) {
	const n = 100000
	stream := gen.NewZipf(5000, 1.2, 3).Stream(n)
	truth := exact.FreqOf(stream)
	s := New(512, 4, 7)
	for _, x := range stream {
		s.Update(x, 1)
	}
	if s.N() != n {
		t.Fatalf("N = %d", s.N())
	}
	for _, c := range truth.Counters() {
		if est := s.Estimate(c.Item); est.Value < c.Count {
			t.Fatalf("underestimate of %d: %d < %d", c.Item, est.Value, c.Count)
		}
	}
}

func TestErrorWithinExpectedScale(t *testing.T) {
	const n = 200000
	stream := gen.NewZipf(5000, 1.3, 11).Stream(n)
	truth := exact.FreqOf(stream)
	eps := 0.01
	s := New(200, 7, 5) // width 2/ε, depth ⌈log2(1/δ)⌉ for δ = 0.01
	for _, x := range stream {
		s.Update(x, 1)
	}
	// With width=2/eps, overestimate of a given item exceeds eps*n with
	// probability < delta. Check the top 100 items all sit within eps*n.
	bound := uint64(eps * float64(n))
	for _, c := range truth.Counters()[:100] {
		est := s.Estimate(c.Item)
		if est.Value-c.Count > bound {
			t.Errorf("item %d: overestimate %d > %d", c.Item, est.Value-c.Count, bound)
		}
	}
}

func TestConservativeNoWorse(t *testing.T) {
	const n = 50000
	stream := gen.NewZipf(2000, 1.2, 9).Stream(n)
	plain := New(128, 4, 3)
	cons := New(128, 4, 3)
	cons.SetConservative(true)
	for _, x := range stream {
		plain.Update(x, 1)
		cons.Update(x, 1)
	}
	truth := exact.FreqOf(stream)
	var plainErr, consErr uint64
	for _, c := range truth.Counters() {
		plainErr += plain.Estimate(c.Item).Value - c.Count
		cv := cons.Estimate(c.Item).Value
		if cv < c.Count {
			t.Fatalf("conservative underestimated %d: %d < %d", c.Item, cv, c.Count)
		}
		consErr += cv - c.Count
	}
	if consErr > plainErr {
		t.Errorf("conservative total error %d > plain %d", consErr, plainErr)
	}
}

func TestMergeEqualsWholeStream(t *testing.T) {
	const n = 60000
	stream := gen.NewZipf(1000, 1.4, 2).Stream(n)
	parts := gen.PartitionContiguous(stream, 8)
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
	if merged.N() != whole.N() {
		t.Fatalf("N: %d != %d", merged.N(), whole.N())
	}
	// Linearity: the merged sketch must be bit-identical to the
	// whole-stream sketch.
	for _, x := range []core.Item{0, 1, 5, 99, 12345} {
		if merged.Estimate(x) != whole.Estimate(x) {
			t.Fatalf("estimate of %d differs: %v vs %v", x, merged.Estimate(x), whole.Estimate(x))
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

func TestHeavyHittersOver(t *testing.T) {
	const n = 50000
	z := gen.NewZipf(1000, 1.5, 4)
	stream := z.Stream(n)
	truth := exact.FreqOf(stream)
	s := New(1024, 4, 8)
	for _, x := range stream {
		s.Update(x, 1)
	}
	threshold := core.HeavyThreshold(n, 100)
	candidates := make([]core.Item, 0, 1000)
	for i := 1; i <= 1000; i++ {
		candidates = append(candidates, z.ItemForRank(i))
	}
	got := s.HeavyHittersOver(candidates, threshold)
	set := make(map[core.Item]bool)
	for _, c := range got {
		set[c.Item] = true
	}
	for _, c := range truth.HeavyHitters(threshold) {
		if !set[c.Item] {
			t.Errorf("true heavy hitter %d missing", c.Item)
		}
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New(64, 2, 1)
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
	s := New(128, 4, 9)
	s.SetConservative(true)
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

func TestRemoveStrictTurnstile(t *testing.T) {
	s := New(256, 4, 1)
	s.Update(1, 100)
	s.Update(2, 50)
	s.Remove(1, 40)
	if s.N() != 110 {
		t.Fatalf("N = %d", s.N())
	}
	if est := s.Estimate(1).Value; est < 60 {
		t.Errorf("Estimate(1) = %d underestimates after remove", est)
	}
	if est := s.Estimate(2).Value; est < 50 {
		t.Errorf("Estimate(2) = %d damaged by unrelated remove", est)
	}
	// Full deletion drives the estimate to its collision floor.
	s.Remove(1, 60)
	if est := s.Estimate(2).Value; est < 50 {
		t.Errorf("Estimate(2) = %d after full deletion of 1", est)
	}
}

func TestRemovePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero weight": func() { New(8, 2, 1).Remove(1, 0) },
		"conservative": func() {
			s := New(8, 2, 1)
			s.SetConservative(true)
			s.Update(1, 1)
			s.Remove(1, 1)
		},
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

// Turnstile linearity: insert a stream, delete a sub-stream, and the
// sketch equals the sketch of the difference.
func TestRemoveLinearity(t *testing.T) {
	stream := gen.NewZipf(500, 1.2, 9).Stream(20000)
	full := New(512, 4, 2)
	for _, x := range stream {
		full.Update(x, 1)
	}
	for _, x := range stream[:5000] {
		full.Remove(x, 1)
	}
	direct := New(512, 4, 2)
	for _, x := range stream[5000:] {
		direct.Update(x, 1)
	}
	if full.N() != direct.N() {
		t.Fatalf("N: %d vs %d", full.N(), direct.N())
	}
	for x := core.Item(0); x < 500; x++ {
		if full.Estimate(x) != direct.Estimate(x) {
			t.Fatalf("estimate of %d differs: %v vs %v", x, full.Estimate(x), direct.Estimate(x))
		}
	}
}
