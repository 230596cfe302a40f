package sampling

import (
	"math"
	"sort"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bottomk": func() { NewBottomK(0, 1) },
		"nan":     func() { NewBottomK(4, 1).Update(math.NaN()) },
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

func TestBottomKSmallStreamExact(t *testing.T) {
	s := NewBottomK(100, 1)
	vals := []float64{5, 1, 9, 3, 7}
	for _, v := range vals {
		s.Update(v)
	}
	if s.Size() != 5 || s.N() != 5 {
		t.Fatalf("Size=%d N=%d", s.Size(), s.N())
	}
	if r := s.Rank(4); r != 2 {
		t.Errorf("Rank(4) = %d, want 2", r)
	}
	got := s.Values()
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v", got)
		}
	}
}

func TestBottomKCapacity(t *testing.T) {
	s := NewBottomK(10, 2)
	for _, v := range gen.UniformValues(10000, 3) {
		s.Update(v)
	}
	if s.Size() != 10 {
		t.Fatalf("Size = %d, want 10", s.Size())
	}
	if s.N() != 10000 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestBottomKRankAccuracy(t *testing.T) {
	const n = 100000
	const k = 10000
	vals := gen.UniformValues(n, 5)
	s := NewBottomK(k, 7)
	for _, v := range vals {
		s.Update(v)
	}
	oracle := exact.QuantilesOf(vals)
	// Standard error ~ n/sqrt(k); allow 5 sigma.
	slack := uint64(5 * float64(n) / math.Sqrt(k))
	for _, v := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got, want := s.Rank(v), oracle.Rank(v)
		diff := got - want
		if want > got {
			diff = want - got
		}
		if diff > slack {
			t.Errorf("Rank(%v) = %d, true %d, |err| > %d", v, got, want, slack)
		}
	}
}

// Mergeability: merging two bottom-k samples is exactly the bottom-k
// of the union of their tagged occurrences.
func TestBottomKMergeIsUnionBottomK(t *testing.T) {
	a, b := NewBottomK(50, 1), NewBottomK(50, 2)
	va := gen.UniformValues(5000, 3)
	vb := gen.UniformValues(3000, 4)
	for _, v := range va {
		a.Update(v)
	}
	for _, v := range vb {
		b.Update(v)
	}
	// Reconstruct the expected union: tags are deterministic per seed.
	type tv struct {
		tag uint64
		v   float64
	}
	var all []tv
	rngA := gen.NewRNG(1)
	for _, v := range va {
		all = append(all, tv{rngA.Uint64(), v})
	}
	rngB := gen.NewRNG(2)
	for _, v := range vb {
		all = append(all, tv{rngB.Uint64(), v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].tag < all[j].tag })
	wantVals := make([]float64, 0, 50)
	for _, x := range all[:50] {
		wantVals = append(wantVals, x.v)
	}
	sort.Float64s(wantVals)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Values()
	if len(got) != 50 {
		t.Fatalf("merged size = %d", len(got))
	}
	for i := range wantVals {
		if got[i] != wantVals[i] {
			t.Fatalf("merged sample differs from union bottom-k at %d: %v vs %v", i, got[i], wantVals[i])
		}
	}
	if a.N() != 8000 {
		t.Fatalf("N = %d", a.N())
	}
}

func TestBottomKMergeMismatched(t *testing.T) {
	a := NewBottomK(10, 1)
	if err := a.Merge(NewBottomK(20, 1)); err == nil {
		t.Error("mismatched k accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestBottomKMergeTreeAccuracy(t *testing.T) {
	const n = 120000
	const k = 4096
	vals := gen.NormalValues(n, 9)
	oracle := exact.QuantilesOf(vals)
	parts := gen.PartitionRandomSizes(vals, 16, 4)
	samples := make([]*BottomK, len(parts))
	for i, p := range parts {
		samples[i] = NewBottomK(k, uint64(i)+10)
		for _, v := range p {
			samples[i].Update(v)
		}
	}
	for len(samples) > 1 {
		var next []*BottomK
		for i := 0; i+1 < len(samples); i += 2 {
			if err := samples[i].Merge(samples[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, samples[i])
		}
		if len(samples)%2 == 1 {
			next = append(next, samples[len(samples)-1])
		}
		samples = next
	}
	m := samples[0]
	if m.N() != n || m.Size() != k {
		t.Fatalf("N=%d Size=%d", m.N(), m.Size())
	}
	slack := uint64(5 * float64(n) / math.Sqrt(k))
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		got := m.Quantile(phi)
		trueRank := oracle.Rank(got)
		target := uint64(phi * float64(n))
		diff := trueRank - target
		if target > trueRank {
			diff = target - trueRank
		}
		if diff > slack {
			t.Errorf("phi=%v: rank error %d > %d", phi, diff, slack)
		}
	}
}

func TestBottomKCloneReset(t *testing.T) {
	s := NewBottomK(10, 1)
	for _, v := range gen.UniformValues(100, 2) {
		s.Update(v)
	}
	c := s.Clone()
	c.Update(0.5)
	if c.N() != s.N()+1 {
		t.Fatal("clone not independent")
	}
	s.Reset()
	if s.N() != 0 || s.Size() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestBottomKCodecRoundTrip(t *testing.T) {
	s := NewBottomK(64, 5)
	for _, v := range gen.UniformValues(5000, 6) {
		s.Update(v)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got BottomK
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.K() != s.K() || got.Size() != s.Size() {
		t.Fatal("header changed")
	}
	gv, sv := got.Values(), s.Values()
	for i := range sv {
		if gv[i] != sv[i] {
			t.Fatal("values changed")
		}
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}
