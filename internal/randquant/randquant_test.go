package randquant

import (
	"bytes"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

// modes are the two ways a Summary is built. A test of behaviour both
// share runs once per row; a test of what only one mode promises
// (logarithmic levels, size independent of n) names its constructor.
var modes = []struct {
	name string
	new  func(s int, seed uint64) *Summary
	eps  func(eps float64, seed uint64) *Summary
}{
	{"plain", New, NewEpsilon},
	{"bounded", func(s int, seed uint64) *Summary { return NewHybrid(s, 3, seed) }, NewHybridEpsilon},
}

// filled returns q after inserting n uniform values.
func filled(q *Summary, n int, seed uint64) *Summary {
	for _, v := range gen.UniformValues(n, seed) {
		q.Update(v)
	}
	return q
}

func mustMarshal(t testing.TB, q *Summary) []byte {
	t.Helper()
	data, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func rankError(oracle *exact.Quantiles, got float64, phi float64, n int) uint64 {
	trueRank := oracle.Rank(got)
	target := uint64(phi * float64(n))
	if target > trueRank {
		return target - trueRank
	}
	return trueRank - target
}

// A block is sorted by core.SortFloats: infinities at the ends, −0
// before +0 whichever arrived first — so the zeros' arrival order
// inside one block does not reach the frame — and a NaN is refused
// before a batch inserts anything.
func TestBlockOrdersInfinitiesAndZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	frames := make([][]byte, 2)
	for i, vs := range [][]float64{
		{1, 0, math.Inf(1), negZero, -1, math.Inf(-1), negZero, 0},
		{1, negZero, math.Inf(1), 0, -1, math.Inf(-1), 0, negZero},
	} {
		s := New(len(vs), 1)
		s.UpdateBatch(vs)
		want := []float64{math.Inf(-1), -1, negZero, negZero, 0, 0, 1, math.Inf(1)}
		if len(s.lv.Partial.Keys) != 0 || len(s.lv.Blocks) != 1 {
			t.Fatalf("expected one promoted block, have partial %d and %d levels", len(s.lv.Partial.Keys), len(s.lv.Blocks))
		}
		for j, v := range s.lv.Blocks[0].Keys {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("block sorted as %v, want %v", s.lv.Blocks[0].Keys, want)
			}
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
	s := New(4, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NaN in a batch did not panic")
			}
		}()
		s.UpdateBatch([]float64{1, 2, math.NaN(), 3, 4})
	}()
	if s.N() != 0 || s.Size() != 0 {
		t.Fatalf("rejected batch left n=%d size=%d", s.N(), s.Size())
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"s=0":        func() { New(0, 1) },
		"eps=0":      func() { NewEpsilon(0, 1) },
		"eps=1":      func() { NewEpsilon(1, 1) },
		"nan":        func() { New(4, 1).Update(math.NaN()) },
		"hybrid s":   func() { NewHybrid(0, 3, 1) },
		"hybrid l":   func() { NewHybrid(4, 0, 1) },
		"hybrid eps": func() { NewHybridEpsilon(1, 1) },
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

func TestEmpty(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s := m.new(8, 1)
			if s.N() != 0 || s.Size() != 0 || s.Levels() != 0 || s.SampleLevel() != 0 {
				t.Fatal("empty summary not empty")
			}
			if !math.IsNaN(s.Quantile(0.5)) {
				t.Error("Quantile on empty should be NaN")
			}
			if s.Rank(3) != 0 {
				t.Error("Rank on empty should be 0")
			}
		})
	}
}

func TestExactWhenSmall(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s := m.new(100, 1)
			for _, v := range []float64{5, 1, 9, 3, 7} {
				s.Update(v)
			}
			// Everything fits the partial buffer: exact answers, no sampling.
			if s.SampleLevel() != 0 {
				t.Fatal("sampling active on tiny input")
			}
			if r := s.Rank(4); r != 2 {
				t.Errorf("Rank(4) = %d, want 2", r)
			}
			if q := s.Quantile(0); q != 1 {
				t.Errorf("Quantile(0) = %v, want 1", q)
			}
			if q := s.Quantile(1); q != 9 {
				t.Errorf("Quantile(1) = %v, want 9", q)
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Weight conservation: the hierarchy represents every insert exactly
// once at every moment.
func TestWeightConservation(t *testing.T) {
	s := New(7, 3)
	for i, v := range gen.UniformValues(10000, 5) {
		s.Update(v)
		if i%997 == 0 {
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.StoredWeight() != s.N() {
		t.Fatalf("weight %d != n %d", s.StoredWeight(), s.N())
	}
}

// The hierarchy must stay logarithmic: size ~ s * log2(n/s).
func TestSizeLogarithmic(t *testing.T) {
	s := New(64, 9)
	const n = 1 << 17
	for _, v := range gen.UniformValues(n, 2) {
		s.Update(v)
	}
	maxSize := 64 * (int(math.Log2(float64(n)/64)) + 2)
	if s.Size() > maxSize {
		t.Errorf("size %d exceeds s*log bound %d", s.Size(), maxSize)
	}
	if s.Levels() > int(math.Log2(n))+1 {
		t.Errorf("levels %d too many", s.Levels())
	}
}

// The bounded mode's reason to exist: size stays below s*(l+2) no
// matter how large n grows, unlike the plain summary whose level count
// grows with log(n).
func TestHybridSizeIndependentOfN(t *testing.T) {
	const s, l = 32, 4
	h := NewHybrid(s, l, 5)
	limit := s * (l + 2)
	for i, v := range gen.UniformValues(1<<18, 3) {
		h.Update(v)
		if i%50000 == 0 && h.Size() > limit {
			t.Fatalf("at n=%d: size %d exceeds cap %d", i+1, h.Size(), limit)
		}
	}
	if h.Size() > limit {
		t.Fatalf("final size %d exceeds cap %d", h.Size(), limit)
	}
	if h.SampleLevel() == 0 {
		t.Fatal("sampling never activated on a large stream")
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// StoredWeight must track N closely once sampling is active (it is an
// unbiased estimator).
func TestHybridWeightEstimate(t *testing.T) {
	const n = 1 << 17
	h := filled(NewHybrid(64, 4, 9), n, 4)
	w := float64(h.StoredWeight())
	if math.Abs(w-n)/n > 0.10 {
		t.Errorf("stored weight %v deviates more than 10%% from n=%d", w, n)
	}
}

// streamGuarantee checks single-stream accuracy at the eps sizing of
// mk on uniform, normal and sorted input.
func streamGuarantee(t *testing.T, mk func(float64, uint64) *Summary, n int, epss ...float64) {
	for _, eps := range epss {
		for name, vals := range map[string][]float64{
			"uniform": gen.UniformValues(n, 1),
			"normal":  gen.NormalValues(n, 2),
			"sorted":  gen.SortedValues(n),
		} {
			s := mk(eps, 42)
			for _, v := range vals {
				s.Update(v)
			}
			oracle := exact.QuantilesOf(vals)
			slack := uint64(eps*float64(n)) + 2
			for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				if e := rankError(oracle, s.Quantile(phi), phi, n); e > slack {
					t.Errorf("eps=%v %s phi=%v: rank error %d > %d", eps, name, phi, e, slack)
				}
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("eps=%v %s: %v", eps, name, err)
			}
		}
	}
}

func TestStreamGuarantee(t *testing.T)       { streamGuarantee(t, NewEpsilon, 100000, 0.05, 0.01) }
func TestHybridStreamGuarantee(t *testing.T) { streamGuarantee(t, NewHybridEpsilon, 200000, 0.05) }

func TestRankEstimate(t *testing.T) {
	const n = 50000
	eps := 0.02
	vals := gen.UniformValues(n, 77)
	for _, m := range modes {
		s := m.eps(eps, 7)
		for _, v := range vals {
			s.Update(v)
		}
		oracle := exact.QuantilesOf(vals)
		slack := uint64(eps*float64(n)) + 2
		for _, v := range []float64{0.1, 0.33, 0.5, 0.9} {
			got, want := s.Rank(v), oracle.Rank(v)
			diff := got - want
			if want > got {
				diff = want - got
			}
			if diff > slack {
				t.Errorf("%s: Rank(%v) = %d, true %d (slack %d)", m.name, v, got, want, slack)
			}
		}
	}
}

// mergeTreeGuarantee is the headline theorem: full mergeability. Any
// partitioning, merged up a balanced binary tree — exact N, error
// ~eps*n.
func mergeTreeGuarantee(t *testing.T, mk func(float64, uint64) *Summary, n int, eps float64) {
	vals := gen.NormalValues(n, 31)
	oracle := exact.QuantilesOf(vals)
	for pname, parts := range map[string][][]float64{
		"contiguous": gen.PartitionContiguous(vals, 16),
		"random":     gen.PartitionRandomSizes(vals, 16, 3),
		"roundrobin": gen.PartitionRoundRobin(vals, 16),
	} {
		sums := make([]*Summary, len(parts))
		for i, p := range parts {
			sums[i] = mk(eps, uint64(i)*13+1)
			for _, v := range p {
				sums[i].Update(v)
			}
		}
		for len(sums) > 1 {
			var next []*Summary
			for i := 0; i+1 < len(sums); i += 2 {
				if err := sums[i].Merge(sums[i+1]); err != nil {
					t.Fatal(err)
				}
				next = append(next, sums[i])
			}
			if len(sums)%2 == 1 {
				next = append(next, sums[len(sums)-1])
			}
			sums = next
		}
		m := sums[0]
		if m.N() != uint64(n) {
			t.Fatalf("%s: N=%d, want %d", pname, m.N(), n)
		}
		if err := m.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		slack := uint64(eps*float64(n)) + 2
		for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			if e := rankError(oracle, m.Quantile(phi), phi, n); e > slack {
				t.Errorf("%s phi=%v: rank error %d > %d", pname, phi, e, slack)
			}
		}
	}
}

func TestMergeTreeGuarantee(t *testing.T)   { mergeTreeGuarantee(t, NewEpsilon, 120000, 0.02) }
func TestHybridMergeGuarantee(t *testing.T) { mergeTreeGuarantee(t, NewHybridEpsilon, 160000, 0.05) }

// Sequential one-way merging (site i folded into the accumulator one
// at a time) must be as good as the balanced tree. In bounded mode the
// accumulator soon samples while every site still arrives at ell = 0:
// each merge reconciles unequal exponents.
func TestSequentialMergeGuarantee(t *testing.T) {
	const n = 80000
	eps := 0.02
	vals := gen.UniformValues(n, 17)
	oracle := exact.QuantilesOf(vals)
	for _, m := range modes {
		acc := m.eps(eps, 1)
		for i, p := range gen.PartitionContiguous(vals, 40) {
			s := m.eps(eps, uint64(i)+100)
			for _, v := range p {
				s.Update(v)
			}
			if err := acc.Merge(s); err != nil {
				t.Fatal(err)
			}
		}
		if acc.N() != n {
			t.Fatalf("%s: N=%d", m.name, acc.N())
		}
		if err := acc.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		slack := uint64(eps*float64(n)) + 2
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			if e := rankError(oracle, acc.Quantile(phi), phi, n); e > slack {
				t.Errorf("%s phi=%v: rank error %d > %d", m.name, phi, e, slack)
			}
		}
	}
}

// refused asserts that dst refuses src with ErrMismatchedShape (or
// ErrNilSummary) and is left byte-for-byte as it was.
func refused(t *testing.T, name string, dst, src *Summary) {
	t.Helper()
	before := mustMarshal(t, dst)
	err := dst.Merge(src)
	if want := map[bool]error{true: core.ErrNilSummary, false: core.ErrMismatchedShape}[src == nil]; !errors.Is(err, want) {
		t.Errorf("%s: Merge = %v, want %v", name, err, want)
	}
	if !bytes.Equal(mustMarshal(t, dst), before) {
		t.Errorf("%s: refused merge changed the receiver", name)
	}
}

func TestMergeMismatched(t *testing.T) {
	a := filled(New(8, 1), 100, 2)
	refused(t, "block size", a, New(16, 1))
	refused(t, "nil", a, nil)
}

// Plain and bounded never mix, in either direction, and bounded
// summaries must share the level budget.
func TestHybridMergeMismatched(t *testing.T) {
	a := filled(NewHybrid(8, 3, 1), 5000, 2)
	refused(t, "block size", a, NewHybrid(16, 3, 1))
	refused(t, "level budget", a, NewHybrid(8, 4, 1))
	refused(t, "plain into bounded", a, filled(New(8, 1), 100, 3))
	refused(t, "bounded into plain", filled(New(8, 1), 100, 3), a)
	refused(t, "nil", a, nil)
}

// Merge reads its source and nothing more: the source's encoded bytes
// (samples, n, ell and RNG state) are the same before and after, in
// plain mode and for every ordering of the two sampling exponents.
func TestMergeDoesNotModifyOther(t *testing.T) {
	bounded := func(n int, seed uint64) *Summary { return filled(NewHybrid(8, 3, seed), n, seed+10) }
	for name, pair := range map[string][2]*Summary{
		"plain":             {filled(New(8, 1), 100, 3), filled(New(8, 2), 123, 4)},
		"ell equal, zero":   {bounded(20, 1), bounded(30, 2)},
		"ell equal, high":   {bounded(1<<14, 1), bounded(1<<14, 2)},
		"receiver coarser":  {bounded(1<<16, 1), bounded(123, 2)},
		"receiver finer":    {bounded(123, 1), bounded(1<<16, 2)},
		"both sampling":     {bounded(1<<16, 1), bounded(1<<12, 2)},
		"both sampling, up": {bounded(1<<12, 1), bounded(1<<16, 2)},
	} {
		dst, src := pair[0], pair[1]
		before, want := mustMarshal(t, src), dst.N()+src.N()
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustMarshal(t, src), before) {
			t.Errorf("%s: merge modified its source (ell %d into %d)", name, src.lv.Ell, dst.lv.Ell)
		}
		if dst.N() != want {
			t.Errorf("%s: N = %d, want %d", name, dst.N(), want)
		}
		if err := dst.checkInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Merging at different sampling exponents reconciles at the coarser
// one, whichever side holds it, and stays an unbiased summary of the
// union: many fine summaries folded into one coarse accumulator (and
// the mirror image) keep the stored weight near N and the median near
// the true one.
func TestHybridMergeDifferentLevels(t *testing.T) {
	const s, l, parts, per = 32, 3, 64, 2000
	vals := gen.UniformValues(1<<16+parts*per, 2)
	oracle := exact.QuantilesOf(vals)
	big := func(seed uint64) *Summary {
		h := NewHybrid(s, l, seed)
		h.UpdateBatch(vals[:1<<16])
		return h
	}
	small := func(i int) *Summary {
		h := NewHybrid(s, l, uint64(i)+50)
		h.UpdateBatch(vals[1<<16+i*per:][:per])
		return h
	}
	if big(1).SampleLevel() <= small(0).SampleLevel() {
		t.Fatal("test needs distinct sample levels")
	}
	into, onto := big(1), small(0) // coarse absorbs fine; fine absorbs coarse, then the rest
	if err := onto.Merge(big(1)); err != nil {
		t.Fatal(err)
	}
	if err := into.Merge(small(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < parts; i++ {
		for _, acc := range []*Summary{into, onto} {
			if err := acc.Merge(small(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := len(vals)
	for name, acc := range map[string]*Summary{"coarse receiver": into, "fine receiver": onto} {
		if acc.N() != uint64(n) {
			t.Fatalf("%s: N = %d, want %d", name, acc.N(), n)
		}
		if err := acc.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w := float64(acc.StoredWeight()); math.Abs(w-float64(n))/float64(n) > 0.10 {
			t.Errorf("%s: stored weight %v deviates more than 10%% from n=%d", name, w, n)
		}
		if e := rankError(oracle, acc.Quantile(0.5), 0.5, n); e > uint64(n/10) {
			t.Errorf("%s: median rank error %d", name, e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, m := range modes {
		a := filled(m.new(8, 1), 5000, 3)
		c := a.Clone()
		if c.lv.S != a.lv.S || c.l != a.l || c.lv.Ell != a.lv.Ell || c.lv.N != a.lv.N || c.Size() != a.Size() || c.Quantile(0.5) != a.Quantile(0.5) {
			t.Fatalf("%s: clone differs from its original", m.name)
		}
		before := a.N()
		c.UpdateBatch(gen.UniformValues(5000, 4))
		if a.N() != before || c.N() != before+5000 {
			t.Fatalf("%s: clone not independent", m.name)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReset(t *testing.T) {
	for _, m := range modes {
		a := filled(m.new(8, 1), 5000, 3)
		a.Reset()
		if a.N() != 0 || a.Size() != 0 || a.SampleLevel() != 0 {
			t.Fatalf("%s: Reset incomplete", m.name)
		}
		a.Update(5)
		if a.Rank(5) != 1 {
			t.Fatalf("%s: unusable after Reset", m.name)
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	for _, m := range modes {
		a, b := filled(m.new(16, 7), 5000, 9), filled(m.new(16, 7), 5000, 9)
		if !bytes.Equal(mustMarshal(t, a), mustMarshal(t, b)) {
			t.Fatalf("%s: same seed produced different summaries", m.name)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s := m.eps(0.05, 3)
			for _, v := range gen.NormalValues(1<<16, 8) {
				s.Update(v)
			}
			data := mustMarshal(t, s)
			var got Summary
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if got.N() != s.N() || got.Size() != s.Size() || got.BlockSize() != s.BlockSize() || got.SampleLevel() != s.SampleLevel() {
				t.Fatal("round-trip changed state")
			}
			for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
				if got.Quantile(phi) != s.Quantile(phi) {
					t.Errorf("phi=%v differs after round trip", phi)
				}
			}
			if err := got.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustMarshal(t, &got), data) {
				t.Fatal("re-encoding differs")
			}
		})
	}
}

// The committed frame is what the parent commit's separate Hybrid type
// encoded for NewHybrid(8, 3, 1) after 100,000 updates: the one type
// decodes it, re-encodes it byte for byte, and builds the same bytes
// itself from the same seed — value by value or in batches.
func TestHybridCodecRoundTrip(t *testing.T) {
	parent, err := os.ReadFile("testdata/hybrid_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := got.UnmarshalBinary(parent); err != nil {
		t.Fatal(err)
	}
	if got.N() != 100000 || got.SampleLevel() == 0 {
		t.Fatalf("decoded n=%d ell=%d", got.N(), got.SampleLevel())
	}
	if !bytes.Equal(mustMarshal(t, &got), parent) {
		t.Fatal("parent frame does not re-encode byte-identically")
	}
	vals := gen.UniformValues(100000, 1)
	if !bytes.Equal(mustMarshal(t, filled(NewHybrid(8, 3, 1), 100000, 1)), parent) {
		t.Fatal("Update builds different bytes than the parent did")
	}
	for _, chunk := range []int{1, 7, 1024, len(vals)} {
		h := NewHybrid(8, 3, 1)
		for off := 0; off < len(vals); off += chunk {
			h.UpdateBatch(vals[off:min(off+chunk, len(vals))])
		}
		if !bytes.Equal(mustMarshal(t, h), parent) {
			t.Fatalf("UpdateBatch in chunks of %d builds different bytes than the parent did", chunk)
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	for _, m := range modes {
		data := mustMarshal(t, filled(m.new(4, 1), 100, 2))
		data[len(data)-5] ^= 0xff
		var got Summary
		if err := got.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s: corrupted frame accepted", m.name)
		}
	}
}

// A NaN has no rank: Update refuses one, and so does the decoder, in
// the partial and anywhere in a block — at a block's front no order
// check sees it, since every comparison with a NaN is false.
func TestCodecRejectsNaN(t *testing.T) {
	nan := math.NaN()
	frame := func(n uint64, partial []float64, blocks ...[]float64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Bool(false)
		w.Int(4)
		w.Uint64(n)
		w.Uint64(1) // rng state
		w.Int(len(partial))
		for _, v := range partial {
			w.Float64(v)
		}
		w.Int(len(blocks))
		for _, b := range blocks {
			w.Int(len(b))
			for _, v := range b {
				w.Float64(v)
			}
		}
		return codec.EncodeFrame(codec.KindRandQuant, w.Bytes())
	}
	var s Summary
	if err := s.UnmarshalBinary(frame(10, []float64{1, 2}, nil, []float64{1, 3, 5, 7})); err != nil {
		t.Fatalf("NaN-free frame: %v", err)
	}
	for name, f := range map[string][]byte{
		"NaN in the partial":   frame(10, []float64{1, nan}, nil, []float64{1, 3, 5, 7}),
		"NaN first in a block": frame(4, nil, []float64{nan, 3, 5, 7}),
		"NaN inside a block":   frame(4, nil, []float64{1, nan, 5, 7}),
	} {
		if err := s.UnmarshalBinary(f); err == nil {
			t.Errorf("%s: accepted (Rank(100) = %d, Quantile(0) = %v)", name, s.Rank(100), s.Quantile(0))
		}
	}
}

// A receiver's mode is whatever the frame says — either mode decodes
// over the other — and only the frame's kind tag can mismatch.
func TestCodecKindMismatch(t *testing.T) {
	for _, from := range modes {
		for _, to := range modes {
			got := filled(from.new(8, 1), 3000, 2)
			want := filled(to.new(8, 3), 3000, 4)
			if err := got.UnmarshalBinary(mustMarshal(t, want)); err != nil {
				t.Fatalf("%s receiver, %s frame: %v", from.name, to.name, err)
			}
			if got.l != want.l || got.lv.Ell != want.lv.Ell || got.N() != want.N() {
				t.Fatalf("%s receiver, %s frame: decoded l=%d ell=%d", from.name, to.name, got.l, got.lv.Ell)
			}
		}
	}
	payload, err := codec.DecodeFrame(codec.KindRandQuant, mustMarshal(t, New(8, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := s.UnmarshalBinary(codec.EncodeFrame(codec.KindGK, payload)); err == nil {
		t.Fatal("decoded a frame tagged as another kind")
	}
}

// frameOf encodes a quantile frame field by field: the header, an
// empty partial buffer, and whatever levels writes.
func frameOf(bounded bool, s, l, ell int, n uint64, levels func(w *codec.Buffer)) []byte {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Bool(bounded)
	w.Int(s)
	if bounded {
		w.Int(l)
		w.Int(ell)
	}
	w.Uint64(n)
	w.Uint64(1) // rng state
	w.Int(0)    // partial
	levels(w)
	return codec.EncodeFrame(codec.KindRandQuant, w.Bytes())
}

// emptyLevels writes a table of count levels, all empty.
func emptyLevels(count int) func(*codec.Buffer) {
	return func(w *codec.Buffer) {
		w.Int(count)
		for range count {
			w.Int(0)
		}
	}
}

// Frames whose header asks for more than a summary can mean: a level
// table beyond the 64 levels uint64 weights allow — 8 MiB of one-byte
// empty levels used to decode into an 8M-entry table — and a sampling
// exponent a merge would have to advance to one halving at a time.
// Each is refused before anything is sized by it, in both modes.
func TestDecodeRejectsHostileHeader(t *testing.T) {
	var good Summary
	for name, frame := range map[string][]byte{
		"64 empty levels":  frameOf(false, 8, 0, 0, 0, emptyLevels(64)),
		"bounded, ell=63":  frameOf(true, 8, 3, 63, 0, emptyLevels(0)),
		"bounded, 64 rows": frameOf(true, 8, 3, 0, 0, emptyLevels(64)),
	} {
		if err := good.UnmarshalBinary(frame); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, frame := range map[string][]byte{
		"plain, 8 MiB of empty levels":   frameOf(false, 8, 0, 0, 0, emptyLevels(8<<20)),
		"bounded, 8 MiB of empty levels": frameOf(true, 8, 3, 0, 0, emptyLevels(8<<20)),
		"65 empty levels":                frameOf(false, 8, 0, 0, 0, emptyLevels(65)),
		"ell=64":                         frameOf(true, 8, 3, 64, 0, emptyLevels(0)),
		"ell=2^30":                       frameOf(true, 8, 3, 1<<30, 0, emptyLevels(0)),
		"flagged, l=0":                   frameOf(true, 8, 0, 0, 0, emptyLevels(0)),
		"block below ell": frameOf(true, 2, 3, 1, 2, func(w *codec.Buffer) {
			w.Int(1)
			w.Int(2)
			w.Float64(1)
			w.Float64(2)
		}),
		"over the level budget": frameOf(true, 1, 1, 0, 5, func(w *codec.Buffer) {
			w.Int(3)
			for range 3 {
				w.Int(1)
				w.Float64(1)
			}
		}),
		"weight != n at ell=0": frameOf(true, 8, 3, 0, 7, emptyLevels(0)),
	} {
		s := filled(NewHybrid(8, 3, 1), 5000, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.UnmarshalBinary(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes", name, len(frame), grew)
		}
		if err := s.checkInvariants(); err != nil {
			t.Errorf("%s: receiver after the rejected frame: %v", name, err)
		}
	}
}

func FuzzUnmarshal(f *testing.F) {
	f.Add(mustMarshal(f, filled(New(8, 1), 500, 1)))
	f.Add(mustMarshal(f, filled(NewHybrid(8, 3, 1), 5000, 2)))
	f.Add([]byte{})
	f.Add(frameOf(true, 8, 3, 64, 0, emptyLevels(0)))
	f.Add(frameOf(false, 8, 0, 0, 0, emptyLevels(4096)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Summary
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		if err := out.checkInvariants(); err != nil {
			t.Fatalf("accepted frame violates invariants: %v", err)
		}
		var again Summary
		if err := again.UnmarshalBinary(mustMarshal(t, &out)); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		// What a decoded frame is for: merging it must terminate and
		// leave its source alone.
		before := mustMarshal(t, &out)
		if err := again.Merge(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustMarshal(t, &out), before) {
			t.Fatal("merge modified its source")
		}
	})
}
