package gk

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	for _, bad := range []float64{0, -0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN update did not panic")
		}
	}()
	New(0.1).Update(math.NaN())
}

// A NaN anywhere in a batch panics before any value is buffered, so it
// never reaches the flush's sort.
func TestNaNBatchPanicsFirst(t *testing.T) {
	s := New(0.1)
	s.UpdateBatch([]float64{3, 1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NaN in a batch did not panic")
			}
		}()
		s.UpdateBatch([]float64{4, 5, math.NaN(), 6})
	}()
	if s.N() != 3 || s.Size() != 3 {
		t.Fatalf("rejected batch left n=%d size=%d, want 3 and 3", s.N(), s.Size())
	}
}

// The flush sorts by core.SortFloats: infinities take the ends, and
// the two zeros of one buffer land as −0 then +0 whichever arrived
// first, so the encoded frame does not depend on their arrival order.
// (sort.Float64s left equal values in an order of its own choosing.)
func TestInfinitiesAndZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	frames := make([][]byte, 2)
	for i, vs := range [][]float64{
		{1, 0, math.Inf(1), negZero, -1, math.Inf(-1), negZero, 0},
		{1, negZero, math.Inf(1), 0, -1, math.Inf(-1), 0, negZero},
	} {
		s := New(0.1)
		s.UpdateBatch(vs)
		if lo, hi := s.Quantile(0), s.Quantile(1); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
			t.Fatalf("extremes are %v and %v, want -Inf and +Inf", lo, hi)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		var zeros []float64
		for _, tp := range s.tuples {
			if tp.v == 0 {
				zeros = append(zeros, tp.v)
			}
		}
		if len(zeros) != 4 || !math.Signbit(zeros[0]) || !math.Signbit(zeros[1]) || math.Signbit(zeros[2]) || math.Signbit(zeros[3]) {
			t.Fatalf("zeros stored as %v, want -0 -0 0 0", zeros)
		}
		frame, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatal("the zeros' arrival order changed the frame")
	}
}

func TestEmpty(t *testing.T) {
	s := New(0.1)
	if s.N() != 0 || s.Size() != 0 {
		t.Fatal("empty summary not empty")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("Quantile on empty should be NaN")
	}
	if s.Rank(1) != 0 {
		t.Error("Rank on empty should be 0")
	}
}

func TestExactWhenSmall(t *testing.T) {
	s := New(0.1)
	vals := []float64{5, 1, 9, 3, 7}
	for _, v := range vals {
		s.Update(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %v, want 1", q)
	}
	if q := s.Quantile(1); q != 9 {
		t.Errorf("Quantile(1) = %v, want 9", q)
	}
	if r := s.Rank(4); r != 2 {
		t.Errorf("Rank(4) = %d, want 2", r)
	}
}

// Core guarantee: every quantile answer has true rank within εn of the
// target, on several distributions and ε values.
func TestQuantileGuarantee(t *testing.T) {
	const n = 100000
	for _, eps := range []float64{0.1, 0.01, 0.001} {
		for name, vals := range map[string][]float64{
			"uniform":  gen.UniformValues(n, 1),
			"normal":   gen.NormalValues(n, 2),
			"sorted":   gen.SortedValues(n),
			"reversed": gen.ReversedValues(n),
			"sawtooth": gen.SawtoothValues(n, 1000),
		} {
			s := New(eps)
			for _, v := range vals {
				s.Update(v)
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("eps=%v %s: %v", eps, name, err)
			}
			oracle := exact.QuantilesOf(vals)
			slack := uint64(eps*float64(n)) + 2
			for _, phi := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				got := s.Quantile(phi)
				trueRank := oracle.Rank(got)
				target := uint64(phi * float64(n))
				diff := trueRank - target
				if target > trueRank {
					diff = target - trueRank
				}
				if diff > slack {
					t.Errorf("eps=%v %s phi=%v: rank error %d > %d", eps, name, phi, diff, slack)
				}
			}
		}
	}
}

func TestRankGuarantee(t *testing.T) {
	const n = 50000
	eps := 0.01
	vals := gen.UniformValues(n, 9)
	s := New(eps)
	for _, v := range vals {
		s.Update(v)
	}
	oracle := exact.QuantilesOf(vals)
	slack := uint64(eps*float64(n)) + 2
	for _, v := range []float64{0.001, 0.1, 0.25, 0.5, 0.77, 0.999} {
		got := s.Rank(v)
		want := oracle.Rank(v)
		diff := got - want
		if want > got {
			diff = want - got
		}
		if diff > slack {
			t.Errorf("Rank(%v) = %d, true %d, error > %d", v, got, want, diff)
		}
	}
}

// GK's reason to exist: size must stay near O((1/ε) log(εn)), far
// below n.
func TestSizeCompression(t *testing.T) {
	const n = 200000
	eps := 0.01
	s := New(eps)
	for _, v := range gen.UniformValues(n, 4) {
		s.Update(v)
	}
	s.Flush()
	// Generous ceiling: 20/eps.
	if s.Size() > int(20/eps) {
		t.Errorf("size %d too large for eps=%v, n=%d", s.Size(), eps, n)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateValues(t *testing.T) {
	s := New(0.05)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Update(float64(i % 3))
	}
	// Values 0,1,2 each with weight n/3.
	if q := s.Quantile(0.5); q != 1 {
		t.Errorf("Quantile(0.5) = %v, want 1", q)
	}
	r := s.Rank(0)
	if math.Abs(float64(r)-float64(n)/3) > 0.05*n+2 {
		t.Errorf("Rank(0) = %d, want ~%d", r, n/3)
	}
}

func TestMergeGuarantee(t *testing.T) {
	const n = 60000
	eps := 0.02
	vals := gen.NormalValues(n, 5)
	parts := gen.PartitionContiguous(vals, 8)
	summaries := make([]*Summary, len(parts))
	for i, p := range parts {
		summaries[i] = New(eps)
		for _, v := range p {
			summaries[i].Update(v)
		}
	}
	// Balanced binary merge tree.
	for len(summaries) > 1 {
		var next []*Summary
		for i := 0; i+1 < len(summaries); i += 2 {
			if err := summaries[i].Merge(summaries[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, summaries[i])
		}
		if len(summaries)%2 == 1 {
			next = append(next, summaries[len(summaries)-1])
		}
		summaries = next
	}
	m := summaries[0]
	if m.N() != n {
		t.Fatalf("N = %d, want %d", m.N(), n)
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	oracle := exact.QuantilesOf(vals)
	slack := uint64(eps*float64(n)) + 2
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		got := m.Quantile(phi)
		trueRank := oracle.Rank(got)
		target := uint64(phi * float64(n))
		diff := trueRank - target
		if target > trueRank {
			diff = target - trueRank
		}
		if diff > slack {
			t.Errorf("phi=%v: rank error %d > %d after merge tree", phi, diff, slack)
		}
	}
}

func TestMergeMismatchedEps(t *testing.T) {
	a, b := New(0.1), New(0.2)
	if err := a.Merge(b); err == nil {
		t.Fatal("mismatched eps accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a := New(0.1)
	for _, v := range gen.UniformValues(1000, 3) {
		a.Update(v)
	}
	before := a.Quantile(0.5)
	if err := a.Merge(New(0.1)); err != nil {
		t.Fatal(err)
	}
	if a.N() != 1000 || a.Quantile(0.5) != before {
		t.Fatal("merge with empty changed state")
	}
	empty := New(0.1)
	if err := empty.Merge(a); err != nil {
		t.Fatal(err)
	}
	if empty.N() != 1000 {
		t.Fatal("merge into empty lost data")
	}
}

func TestMergedDoesNotModifyInputs(t *testing.T) {
	a, b := New(0.1), New(0.1)
	for i, v := range gen.UniformValues(2000, 7) {
		if i%2 == 0 {
			a.Update(v)
		} else {
			b.Update(v)
		}
	}
	an, bn := a.N(), b.N()
	m, err := Merged(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != an || b.N() != bn {
		t.Fatal("Merged modified an input")
	}
	if m.N() != an+bn {
		t.Fatal("Merged N wrong")
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New(0.05)
	for _, v := range gen.UniformValues(5000, 1) {
		s.Update(v)
	}
	c := s.Clone()
	c.Update(9)
	if c.N() != s.N()+1 {
		t.Fatal("clone not independent")
	}
	s.Reset()
	if s.N() != 0 || s.Size() != 0 {
		t.Fatal("Reset incomplete")
	}
	s.Update(1)
	if s.N() != 1 {
		t.Fatal("unusable after Reset")
	}
}

// flush and Merge write into a retained run and swap it with the tuple
// list. A summary that carries one must stay, frame for frame, on the
// bytes of its Clone, which starts without.
func TestRetainedRunKeepsFrames(t *testing.T) {
	vals := gen.UniformValues(20000, 5)
	warm := New(0.02)
	warm.UpdateBatch(vals[:5000])
	for round := 0; round < 4; round++ {
		cold := warm.Clone()
		other := New(0.02)
		other.UpdateBatch(vals[5000+round*1000:][:1000])
		var frames [2][]byte
		for i, s := range []*Summary{warm, cold} {
			s.UpdateBatch(vals[10000+round*2000:][:2000])
			if err := s.Merge(other); err != nil {
				t.Fatal(err)
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			frames[i], _ = s.MarshalBinary()
		}
		if !bytes.Equal(frames[0], frames[1]) {
			t.Fatalf("round %d: frame depends on the retained run", round)
		}
	}
}

// RankBounds must always contain the true rank, with width <= 2εn+1.
func TestRankBoundsContainTruth(t *testing.T) {
	const n = 50000
	eps := 0.01
	vals := gen.UniformValues(n, 31)
	s := New(eps)
	for _, v := range vals {
		s.Update(v)
	}
	oracle := exact.QuantilesOf(vals)
	for _, v := range []float64{-1, 0.001, 0.2, 0.5, 0.8, 0.999, 2} {
		lo, hi := s.RankBounds(v)
		truth := oracle.Rank(v)
		if truth < lo || truth > hi {
			t.Errorf("RankBounds(%v) = [%d,%d] misses true rank %d", v, lo, hi, truth)
		}
		if hi-lo > uint64(2*eps*float64(n))+1 {
			t.Errorf("RankBounds(%v) width %d exceeds 2εn", v, hi-lo)
		}
	}
	empty := New(0.1)
	if lo, hi := empty.RankBounds(1); lo != 0 || hi != 0 {
		t.Errorf("empty RankBounds = [%d,%d]", lo, hi)
	}
}

func TestExtremesAlwaysExact(t *testing.T) {
	s := New(0.01)
	vals := gen.NormalValues(50000, 13)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		s.Update(v)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if got := s.Quantile(0); got != lo {
		t.Errorf("Quantile(0) = %v, want exact min %v", got, lo)
	}
	if got := s.Quantile(1); got != hi {
		t.Errorf("Quantile(1) = %v, want exact max %v", got, hi)
	}
}
