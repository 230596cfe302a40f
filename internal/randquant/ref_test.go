package randquant

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"repro/internal/gen"
)

// weighted is one stored sample with its level weight.
type weighted struct {
	v float64
	w uint64
}

// refQuantile is Quantile as this package shipped it before the
// selection from the sorted levels — every stored sample copied out
// with its level weight, sorted, and walked with a running float sum —
// kept as the differential oracle.
func refQuantile(s *Summary, phi float64) float64 {
	all := make([]weighted, 0, s.Size())
	for i, b := range s.lv.Blocks {
		for _, v := range b.Keys {
			all = append(all, weighted{v: v, w: 1 << uint(i)})
		}
	}
	for _, v := range s.lv.Partial.Keys {
		all = append(all, weighted{v: v, w: 1 << uint(s.lv.Ell)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	if len(all) == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return all[0].v
	}
	if phi >= 1 {
		return all[len(all)-1].v
	}
	target := phi * float64(s.StoredWeight())
	var cum float64
	for _, ws := range all {
		cum += float64(ws.w)
		if cum >= target {
			return ws.v
		}
	}
	return all[len(all)-1].v
}

// refRank is Rank as it shipped before it moved into levels.Stack: a
// sort.Search per block and a scan of the partial. A NaN has rank 0
// (no stored value is <= NaN); the search counted every block key.
func refRank(s *Summary, v float64) uint64 {
	if math.IsNaN(v) {
		return 0
	}
	var r uint64
	for i, b := range s.lv.Blocks {
		c := sort.Search(len(b.Keys), func(j int) bool { return b.Keys[j] > v })
		r += uint64(c) << uint(i)
	}
	for _, x := range s.lv.Partial.Keys {
		if x <= v {
			r += 1 << uint(s.lv.Ell)
		}
	}
	return r
}

// refPhis are the query points the oracle tests sweep: out of range,
// NaN, the ends, and interior points down to one part in 10^9.
var refPhis = []float64{math.NaN(), -1, 0, 1e-9, 0.25, 0.5, 0.999, 1, 2, math.Inf(1)}

// sameAnswer reports whether two quantile answers are the same float:
// bit for bit, except that −0 and +0 tie (the reference's sort.Slice
// is unstable, so it may return either sign of a zero that both hold).
func sameAnswer(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got == 0 && want == 0)
}

// refCases are the summaries the oracle tests query: empty, an empty
// partial, a partial with no blocks, a nearly full partial, a bounded
// summary past sampling (ell > 0), ties of ±0 and ±Inf across levels,
// and accumulators of 1 to 1,000 merged edge reports.
func refCases(t testing.TB) map[string]*Summary {
	negZero := math.Copysign(0, -1)
	cases := map[string]*Summary{
		"empty":                 New(64, 1),
		"empty partial":         filled(New(64, 2), 64*37, 2),
		"no blocks":             filled(New(64, 3), 40, 3),
		"nearly full partial":   filled(New(64, 4), 64*21+63, 4),
		"bounded, sampled":      filled(NewHybrid(16, 2, 5), 100000, 5),
		"bounded, not sampled":  filled(NewHybrid(64, 3, 6), 500, 6),
		"bounded epsilon, 2^18": filled(NewHybridEpsilon(0.05, 7), 1<<18, 7),
	}
	if cases["bounded, sampled"].SampleLevel() == 0 {
		t.Fatal("the sampled case never sampled")
	}
	ties := New(8, 8)
	pool := []float64{math.Inf(-1), -1, negZero, 0, 1, math.Inf(1)}
	rng := gen.NewRNG(8)
	for range 1003 {
		ties.Update(pool[rng.Uint64()%uint64(len(pool))])
	}
	cases["ties of ±0 and ±Inf"] = ties
	acc := NewEpsilon(0.02, 9)
	for i := range uint64(1000) {
		r := NewEpsilon(0.02, 100+i)
		r.UpdateBatch(gen.LogNormalValues(512, 0, 1, i))
		if err := acc.Merge(r); err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case 1, 2, 3, 10, 100, 1000:
			cases["accumulator of "+strconv.FormatUint(i+1, 10)] = acc.Clone()
		}
	}
	return cases
}

// TestQuantileMatchesSort holds the selection from the sorted levels to
// the sorted walk it replaced, bit for bit: the two agree exactly while
// the stored weight is below 2^53, where the walk's float sum is exact.
func TestQuantileMatchesSort(t *testing.T) {
	for name, s := range refCases(t) {
		if s.StoredWeight() >= 1<<53 {
			t.Fatalf("%s: stored weight %d is past where the walk is exact", name, s.StoredWeight())
		}
		for _, phi := range refPhis {
			if got, want := s.Quantile(phi), refQuantile(s, phi); !sameAnswer(got, want) {
				t.Errorf("%s: Quantile(%v) = %v, the sorted walk %v", name, phi, got, want)
			}
		}
		// Every stored weight a sample's rank can take, as phi.
		if w := s.StoredWeight(); w > 0 && w < 5000 {
			for r := uint64(0); r <= w; r++ {
				phi := float64(r) / float64(w)
				if got, want := s.Quantile(phi), refQuantile(s, phi); !sameAnswer(got, want) {
					t.Fatalf("%s: Quantile(%d/%d) = %v, the sorted walk %v", name, r, w, got, want)
				}
			}
		}
	}
}

// TestRankMatchesSearch holds Rank to the per-block search it moved
// from, at every stored sample, between samples, at the infinities and
// at NaN (rank 0).
func TestRankMatchesSearch(t *testing.T) {
	for name, s := range refCases(t) {
		probes := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
		probes = append(probes, s.lv.Partial.Keys...)
		for _, b := range s.lv.Blocks {
			for _, v := range b.Keys {
				probes = append(probes, v, math.Nextafter(v, math.Inf(1)))
			}
		}
		for _, v := range probes {
			if got, want := s.Rank(v), refRank(s, v); got != want {
				t.Fatalf("%s: Rank(%v) = %d, want %d", name, v, got, want)
			}
		}
	}
}

// TestQueriesAllocateNothing: once the lender holds a sort run, neither
// query allocates.
func TestQueriesAllocateNothing(t *testing.T) {
	s := refCases(t)["accumulator of 1000"]
	_ = s.Quantile(0.5)
	if a := testing.AllocsPerRun(100, func() { _ = s.Quantile(0.5) }); a != 0 {
		t.Errorf("Quantile: %v allocs", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = s.Rank(1) }); a != 0 {
		t.Errorf("Rank: %v allocs", a)
	}
}
