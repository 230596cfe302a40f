package mg

import (
	"math"
	"testing"

	"repro/internal/codec"
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
	s := NewEpsilon(0.1)
	if s.K() != 9 {
		t.Errorf("NewEpsilon(0.1).K() = %d, want 9", s.K())
	}
	s = NewEpsilon(0.5)
	if s.K() != 1 {
		t.Errorf("NewEpsilon(0.5).K() = %d, want 1", s.K())
	}
	for _, bad := range []float64{0, -0.1, 1, 2} {
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

func TestUpdateSmallStream(t *testing.T) {
	s := New(2)
	s.Update(1, 3)
	s.Update(2, 2)
	if s.Len() != 2 || s.N() != 5 {
		t.Fatalf("Len=%d N=%d", s.Len(), s.N())
	}
	if e := s.Estimate(1); e.Value != 3 || e.Lower != 3 || e.Upper != 3 {
		t.Errorf("Estimate(1) = %v", e)
	}
	// Third distinct item triggers a prune by the minimum (=1 here,
	// the new item's own weight): counts 3,2 stay minus 1... cut is
	// the (k+1)-th largest of {3,2,1} = 1.
	s.Update(3, 1)
	if s.Len() > 2 {
		t.Fatalf("Len=%d after prune", s.Len())
	}
	if e := s.Estimate(1); e.Value != 2 {
		t.Errorf("Estimate(1) after prune = %v, want value 2", e)
	}
	if e := s.Estimate(3); e.Value != 0 {
		t.Errorf("Estimate(3) = %v, want 0", e)
	}
	if s.ErrorBound() != 1 {
		t.Errorf("ErrorBound = %d, want 1", s.ErrorBound())
	}
	if s.N() != 6 {
		t.Errorf("N = %d, want 6", s.N())
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

func TestWeightedUpdateEviction(t *testing.T) {
	s := New(2)
	s.Update(1, 10)
	s.Update(2, 5)
	// New item heavier than the current minimum: it must survive with
	// weight reduced by the minimum.
	s.Update(3, 7)
	if e := s.Estimate(3); e.Value != 2 {
		t.Errorf("Estimate(3) = %v, want value 2 (7-5)", e)
	}
	if e := s.Estimate(2); e.Value != 0 {
		t.Errorf("Estimate(2) = %v, want evicted", e)
	}
	if e := s.Estimate(1); e.Value != 5 {
		t.Errorf("Estimate(1) = %v, want 5", e)
	}
}

// The central MG guarantee on a skewed stream: no overestimation,
// undercount at most n/(k+1), and ErrorBound() is a valid certificate.
func TestStreamGuarantee(t *testing.T) {
	const n = 200000
	for _, k := range []int{4, 16, 64} {
		stream := gen.NewZipf(10000, 1.3, uint64(k)).Stream(n)
		truth := exact.FreqOf(stream)
		s := New(k)
		for _, x := range stream {
			s.Update(x, 1)
		}
		if s.N() != n {
			t.Fatalf("k=%d: N=%d, want %d", k, s.N(), n)
		}
		bound := core.MGBound(n, k)
		if s.ErrorBound() > bound {
			t.Errorf("k=%d: ErrorBound %d exceeds n/(k+1)=%d", k, s.ErrorBound(), bound)
		}
		for _, c := range truth.Counters() {
			e := s.Estimate(c.Item)
			if e.Value > c.Count {
				t.Fatalf("k=%d: overestimate of %d: est %d > true %d", k, c.Item, e.Value, c.Count)
			}
			if c.Count-e.Value > s.ErrorBound() {
				t.Fatalf("k=%d: undercount of %d beyond certificate: est %d, true %d, dec %d",
					k, c.Item, e.Value, c.Count, s.ErrorBound())
			}
			if !e.Contains(c.Count) {
				t.Fatalf("k=%d: interval %v misses true count %d", k, e, c.Count)
			}
		}
	}
}

// Sequential all-distinct stream: the worst case. Estimates collapse
// toward zero but the bound must still hold.
func TestSequentialWorstCase(t *testing.T) {
	const n = 10000
	s := New(9)
	for _, x := range gen.Sequential(n) {
		s.Update(x, 1)
	}
	if s.ErrorBound() > core.MGBound(n, 9) {
		t.Errorf("ErrorBound %d exceeds %d", s.ErrorBound(), core.MGBound(n, 9))
	}
}

func TestHeavyHitters(t *testing.T) {
	const n = 100000
	k := 49 // phi = 1/50
	stream := gen.NewZipf(5000, 1.5, 7).Stream(n)
	truth := exact.FreqOf(stream)
	s := New(k)
	for _, x := range stream {
		s.Update(x, 1)
	}
	threshold := core.HeavyThreshold(n, 50)
	got := s.HeavyHitters(threshold)
	gotSet := make(map[core.Item]bool)
	for _, c := range got {
		gotSet[c.Item] = true
	}
	// Completeness: every true heavy hitter must be reported.
	for _, c := range truth.HeavyHitters(threshold) {
		if !gotSet[c.Item] {
			t.Errorf("true heavy hitter %d (count %d) not reported", c.Item, c.Count)
		}
	}
	// Soundness up to the guarantee: no reported item may have true
	// frequency below threshold - n/(k+1).
	slack := core.MGBound(n, k)
	for _, c := range got {
		if truth.Count(c.Item)+slack < threshold {
			t.Errorf("reported item %d has true count %d, below threshold-slack", c.Item, truth.Count(c.Item))
		}
	}
}

func TestCountersSortedAscending(t *testing.T) {
	s := New(8)
	for _, x := range gen.NewZipf(100, 1.2, 3).Stream(10000) {
		s.Update(x, 1)
	}
	cs := s.Counters()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Count > cs[i].Count {
			t.Fatalf("Counters not ascending: %v", cs)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(4)
	s.Update(1, 5)
	c := s.Clone()
	c.Update(2, 3)
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone not independent")
	}
	if s.N() != 5 || c.N() != 8 {
		t.Fatal("clone N wrong")
	}
}

func TestReset(t *testing.T) {
	s := New(4)
	s.Update(1, 5)
	s.Update(2, 1)
	s.Reset()
	if s.Len() != 0 || s.N() != 0 || s.ErrorBound() != 0 {
		t.Fatal("Reset left state behind")
	}
	s.Update(3, 2)
	if e := s.Estimate(3); e.Value != 2 {
		t.Fatal("summary unusable after Reset")
	}
}

func TestFromCountersValidation(t *testing.T) {
	if _, err := FromCounters(0, 0, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FromCounters(1, 10, 0, []core.Counter{{Item: 1, Count: 1}, {Item: 2, Count: 1}}); err == nil {
		t.Error("too many counters accepted")
	}
	if _, err := FromCounters(2, 10, 0, []core.Counter{{Item: 1, Count: 0}}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := FromCounters(2, 10, 0, []core.Counter{{Item: 1, Count: 1}, {Item: 1, Count: 2}}); err == nil {
		t.Error("duplicate item accepted")
	}
	s, err := FromCounters(2, 10, 1, []core.Counter{{Item: 1, Count: 4}})
	if err != nil {
		t.Fatalf("valid FromCounters failed: %v", err)
	}
	if s.N() != 10 || s.ErrorBound() != 1 || s.Estimate(1).Value != 4 {
		t.Error("FromCounters state wrong")
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
	if got.K() != s.K() || got.N() != s.N() || got.ErrorBound() != s.ErrorBound() || got.Len() != s.Len() {
		t.Fatal("round-trip changed header state")
	}
	want := s.Counters()
	have := got.Counters()
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("counter %d: %v != %v", i, have[i], want[i])
		}
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

	// Well-formed frames that break the laws every merge keeps: the
	// counters may carry at most n between them, without wrapping, and
	// dec may not pass n/(k+1).
	for _, tc := range []struct {
		name       string
		n, dec     uint64
		counts     []uint64
		acceptable bool
	}{
		{"counters carry more than n", 1, 0, []uint64{1000}, false},
		{"counter sum wraps", math.MaxUint64, 0, []uint64{1 << 63, 1 << 63, 2}, false},
		{"dec above n/(k+1)", 10, 3, []uint64{4}, false},
		{"at both bounds", 10, 2, []uint64{4, 6}, true},
	} {
		var w codec.Buffer
		w.Int(4)
		w.Uint64(tc.n)
		w.Uint64(tc.dec)
		w.Int(len(tc.counts))
		for i, c := range tc.counts {
			w.Uint64(uint64(i + 1))
			w.Uint64(c)
		}
		err := got.UnmarshalBinary(codec.EncodeFrame(codec.KindMisraGries, w.Bytes()))
		if (err == nil) != tc.acceptable {
			t.Errorf("%s: decode error %v", tc.name, err)
		}
	}
}
