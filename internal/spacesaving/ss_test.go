package spacesaving

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestNewEpsilon(t *testing.T) {
	if got := NewEpsilon(0.1).K(); got != 10 {
		t.Errorf("NewEpsilon(0.1).K() = %d, want 10", got)
	}
	for _, bad := range []float64{0, 1, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEpsilon(%v) did not panic", bad)
				}
			}()
			NewEpsilon(bad)
		}()
	}
}

func TestUpdateBasic(t *testing.T) {
	s := New(3)
	s.Update(1, 1)
	s.Update(2, 1)
	s.Update(1, 1)
	if s.N() != 3 || s.Len() != 2 {
		t.Fatalf("N=%d Len=%d", s.N(), s.Len())
	}
	if e := s.Estimate(1); e.Value != 2 || e.Lower != 2 || e.Upper != 2 {
		t.Errorf("Estimate(1) = %v", e)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-weight update did not panic")
		}
	}()
	New(2).Update(1, 0)
}

func TestEvictionInheritsMin(t *testing.T) {
	s := New(2)
	s.Update(1, 5)
	s.Update(2, 3)
	s.Update(3, 1) // must evict item 2 (count 3) and become 3+1=4
	if s.Len() != 2 {
		t.Fatalf("Len=%d", s.Len())
	}
	e := s.Estimate(3)
	if e.Value != 4 {
		t.Errorf("Estimate(3).Value = %d, want 4", e.Value)
	}
	if e.Lower != 1 { // count 4 − eps 3
		t.Errorf("Estimate(3).Lower = %d, want 1", e.Lower)
	}
	if got := s.Estimate(2); got.Value != 0 {
		t.Errorf("evicted item has estimate %v", got)
	}
	// Unmonitored upper bound is the minimum counter.
	if got := s.Estimate(99); got.Upper != 4 {
		t.Errorf("unmonitored Upper = %d, want min=4", got.Upper)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionFIFOWithinBucket(t *testing.T) {
	s := New(3)
	s.Update(1, 1)
	s.Update(2, 1)
	s.Update(3, 1)
	// All three share the min bucket; the oldest (1) must be evicted.
	s.Update(4, 1)
	if s.Estimate(1).Value != 0 {
		t.Error("oldest min entry not evicted")
	}
	if s.Estimate(2).Value == 0 || s.Estimate(3).Value == 0 {
		t.Error("wrong entry evicted")
	}
}

// Σ counters == n for a fresh (never merged) summary: SpaceSaving
// conserves the total stream weight (eq. 9 of the supplied text).
func TestWeightConservation(t *testing.T) {
	const n = 50000
	for _, k := range []int{1, 2, 8, 64} {
		s := New(k)
		for _, x := range gen.NewZipf(1000, 1.1, uint64(k)).Stream(n) {
			s.Update(x, 1)
		}
		if got := core.TotalCount(s.Counters()); got != n {
			t.Errorf("k=%d: sum of counters = %d, want %d", k, got, n)
		}
		if s.MinCount() > core.SSBound(n, k) {
			t.Errorf("k=%d: min counter %d exceeds n/k=%d", k, s.MinCount(), core.SSBound(n, k))
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// The SpaceSaving guarantee on a skewed stream: estimates never fall
// below the true count, overestimate by at most the per-counter
// certificate, and the certificate is at most min <= n/k.
func TestStreamGuarantee(t *testing.T) {
	const n = 200000
	for _, k := range []int{4, 16, 64} {
		stream := gen.NewZipf(10000, 1.3, uint64(k)).Stream(n)
		truth := exact.FreqOf(stream)
		s := New(k)
		for _, x := range stream {
			s.Update(x, 1)
		}
		if s.UnderBound() != 0 {
			t.Fatalf("fresh summary has under=%d", s.UnderBound())
		}
		for _, c := range truth.Counters() {
			e := s.Estimate(c.Item)
			if e.Value != 0 && e.Value < c.Count {
				t.Fatalf("k=%d: monitored underestimate of %d: est %d < true %d", k, c.Item, e.Value, c.Count)
			}
			if !e.Contains(c.Count) {
				t.Fatalf("k=%d: interval %v misses true count %d of item %d", k, e, c.Count, c.Item)
			}
			if e.Value > c.Count+core.SSBound(n, k) {
				t.Fatalf("k=%d: overestimate of %d beyond n/k: est %d true %d", k, c.Item, e.Value, c.Count)
			}
		}
	}
}

func TestWeightedUpdates(t *testing.T) {
	s := New(4)
	s.Update(1, 100)
	s.Update(2, 50)
	s.Update(3, 10)
	s.Update(4, 5)
	s.Update(5, 30) // evicts 4 (count 5): count 35, eps 5
	if e := s.Estimate(5); e.Value != 35 || e.Lower != 30 {
		t.Errorf("Estimate(5) = %v, want value 35 lower 30", e)
	}
	s.Update(1, 7)
	if e := s.Estimate(1); e.Value != 107 {
		t.Errorf("Estimate(1) = %v", e)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyHittersComplete(t *testing.T) {
	const n = 100000
	k := 50
	stream := gen.NewZipf(5000, 1.5, 7).Stream(n)
	truth := exact.FreqOf(stream)
	s := New(k)
	for _, x := range stream {
		s.Update(x, 1)
	}
	threshold := core.HeavyThreshold(n, 50)
	got := s.HeavyHitters(threshold)
	set := make(map[core.Item]bool)
	for _, c := range got {
		set[c.Item] = true
	}
	for _, c := range truth.HeavyHitters(threshold) {
		if !set[c.Item] {
			t.Errorf("true heavy hitter %d (count %d) missing", c.Item, c.Count)
		}
	}
}

func TestCountersAscending(t *testing.T) {
	s := New(16)
	for _, x := range gen.NewZipf(500, 1.2, 3).Stream(30000) {
		s.Update(x, 1)
	}
	cs := s.Counters()
	if len(cs) != 16 {
		t.Fatalf("len = %d", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Count > cs[i].Count {
			t.Fatal("Counters not ascending")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(3)
	s.Update(1, 5)
	c := s.Clone()
	c.Update(2, 2)
	if s.Len() != 1 || c.Len() != 2 || s.N() != 5 || c.N() != 7 {
		t.Fatal("clone not independent")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowKeepsBuckets: a clone starts with entry arrays sized for
// what it holds (16 here), and they grow as items arrive; the bucket
// arrays share their allocations and must come along intact — the
// clone ends exactly where the original, which never grew, does.
func TestGrowKeepsBuckets(t *testing.T) {
	s := New(200)
	for x := 0; x < 10; x++ {
		s.Update(core.Item(x), uint64(x+1))
	}
	c := s.Clone()
	rng := gen.NewRNG(3)
	for i := 0; i < 3000; i++ {
		x, w := core.Item(rng.Intn(400)), uint64(rng.Intn(3)+1)
		s.Update(x, w)
		c.Update(x, w)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprint(s.States()), fmt.Sprint(c.States()); a != b {
		t.Fatalf("grown clone diverged:\n%s\n%s", a, b)
	}
}

func TestReset(t *testing.T) {
	s := New(3)
	s.Update(1, 5)
	s.Reset()
	if s.Len() != 0 || s.N() != 0 || s.MinCount() != 0 {
		t.Fatal("Reset left state")
	}
	s.Update(2, 1)
	if s.Estimate(2).Value != 1 {
		t.Fatal("unusable after Reset")
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFromStatesValidation(t *testing.T) {
	if _, err := FromStates(0, 0, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FromStates(1, 5, 0, []CounterState{{Item: 1, Count: 2}, {Item: 2, Count: 3}}); err == nil {
		t.Error("too many counters accepted")
	}
	if _, err := FromStates(2, 5, 0, []CounterState{{Item: 1, Count: 0}}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := FromStates(2, 5, 0, []CounterState{{Item: 1, Count: 1}, {Item: 1, Count: 2}}); err == nil {
		t.Error("duplicate accepted")
	}
	s, err := FromStates(2, 5, 1, []CounterState{{Item: 1, Count: 4, Eps: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 || s.UnderBound() != 1 {
		t.Error("header state wrong")
	}
	if e := s.Estimate(1); e.Value != 4 || e.Lower != 2 || e.Upper != 5 {
		t.Errorf("Estimate = %v", e)
	}
}

func TestInvariantsUnderChurn(t *testing.T) {
	s := New(8)
	rng := gen.NewRNG(42)
	for i := 0; i < 20000; i++ {
		s.Update(core.Item(rng.Intn(100)), uint64(rng.Intn(5)+1))
		if i%1000 == 0 {
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := New(16)
	for _, x := range gen.NewZipf(500, 1.4, 11).Stream(50000) {
		s.Update(x, 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.K() != s.K() || got.N() != s.N() || got.UnderBound() != s.UnderBound() {
		t.Fatal("header state changed")
	}
	ws, hs := s.States(), got.States()
	if len(ws) != len(hs) {
		t.Fatal("state count changed")
	}
	for i := range ws {
		if ws[i] != hs[i] {
			t.Fatalf("state %d: %v != %v", i, hs[i], ws[i])
		}
	}
	if err := got.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := New(4)
	s.Update(1, 2)
	data, _ := s.MarshalBinary()
	data[len(data)-5] ^= 0xff
	var got Summary
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}
