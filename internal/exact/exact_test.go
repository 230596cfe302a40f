package exact

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestFreqTable(t *testing.T) {
	ft := FreqOf([]core.Item{1, 2, 2, 3, 3, 3})
	if ft.N() != 6 {
		t.Errorf("N = %d, want 6", ft.N())
	}
	if ft.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", ft.Distinct())
	}
	if ft.Count(3) != 3 || ft.Count(1) != 1 || ft.Count(99) != 0 {
		t.Error("wrong counts")
	}
	cs := ft.Counters()
	if cs[0] != (core.Counter{Item: 3, Count: 3}) {
		t.Errorf("top counter = %v", cs[0])
	}
}

func TestFreqTableMerge(t *testing.T) {
	a := FreqOf([]core.Item{1, 1, 2})
	b := FreqOf([]core.Item{2, 3})
	a.Merge(b)
	if a.N() != 5 || a.Count(1) != 2 || a.Count(2) != 2 || a.Count(3) != 1 {
		t.Errorf("merge wrong: n=%d", a.N())
	}
}

func TestHeavyHitters(t *testing.T) {
	ft := FreqOf([]core.Item{1, 1, 1, 1, 2, 2, 3})
	hh := ft.HeavyHitters(2)
	if len(hh) != 2 || hh[0].Item != 1 || hh[1].Item != 2 {
		t.Errorf("HeavyHitters(2) = %v", hh)
	}
	if got := ft.HeavyHitters(100); len(got) != 0 {
		t.Errorf("HeavyHitters(100) = %v, want empty", got)
	}
}

func TestQuantiles(t *testing.T) {
	vals := []float64{10, 30, 20, 40, 50}
	q := QuantilesOf(vals)
	if vals[1] != 30 || vals[2] != 20 {
		t.Errorf("QuantilesOf sorted its input: %v", vals)
	}
	if q.N() != 5 {
		t.Errorf("N = %d", q.N())
	}
	if r := q.Rank(25); r != 2 {
		t.Errorf("Rank(25) = %d, want 2", r)
	}
	if r := q.Rank(30); r != 3 {
		t.Errorf("Rank(30) = %d, want 3 (rank counts <=)", r)
	}
	if r := q.Rank(5); r != 0 {
		t.Errorf("Rank(5) = %d, want 0", r)
	}
	if r := q.Rank(100); r != 5 {
		t.Errorf("Rank(100) = %d, want 5", r)
	}
	if v := q.Quantile(0); v != 10 {
		t.Errorf("Quantile(0) = %v", v)
	}
	if v := q.Quantile(0.5); v != 30 {
		t.Errorf("Quantile(0.5) = %v", v)
	}
	if v := q.Quantile(1); v != 50 {
		t.Errorf("Quantile(1) = %v", v)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	q := QuantilesOf(nil)
	if !math.IsNaN(q.Quantile(0.5)) {
		t.Error("Quantile on empty should be NaN")
	}
	if q.Rank(1) != 0 {
		t.Error("Rank on empty should be 0")
	}
}

func TestRangeCount(t *testing.T) {
	ps := []gen.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0.5}, {X: 1, Y: 1}, {X: 0.25, Y: 0.9}}
	r := Rect{X0: 0, Y0: 0, X1: 0.5, Y1: 1}
	if got := RangeCount(ps, r); got != 3 {
		t.Errorf("RangeCount = %d, want 3", got)
	}
	if got := RangeCount(nil, r); got != 0 {
		t.Errorf("RangeCount(nil) = %d", got)
	}
}

func TestDirectionalWidth(t *testing.T) {
	ps := []gen.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 3}}
	if w := DirectionalWidth(ps, 0); math.Abs(w-2) > 1e-12 {
		t.Errorf("width along x = %v, want 2", w)
	}
	if w := DirectionalWidth(ps, math.Pi/2); math.Abs(w-3) > 1e-12 {
		t.Errorf("width along y = %v, want 3", w)
	}
	if w := DirectionalWidth(nil, 0); w != 0 {
		t.Errorf("width of empty = %v", w)
	}
}

// Property: Rank is monotone and bounded by N.
func TestRankMonotone(t *testing.T) {
	f := func(values []float64, a, b float64) bool {
		for i, v := range values {
			if math.IsNaN(v) {
				values[i] = 0
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		q := QuantilesOf(values)
		if a > b {
			a, b = b, a
		}
		ra, rb := q.Rank(a), q.Rank(b)
		return ra <= rb && rb <= q.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merging tables equals building one table from the
// concatenated stream.
func TestFreqMergeEquivalence(t *testing.T) {
	f := func(s1, s2 []uint8) bool {
		a := make([]core.Item, len(s1))
		for i, v := range s1 {
			a[i] = core.Item(v)
		}
		b := make([]core.Item, len(s2))
		for i, v := range s2 {
			b[i] = core.Item(v)
		}
		merged := FreqOf(a)
		merged.Merge(FreqOf(b))
		whole := FreqOf(append(append([]core.Item{}, a...), b...))
		if merged.N() != whole.N() || merged.Distinct() != whole.Distinct() {
			return false
		}
		for _, c := range whole.Counters() {
			if merged.Count(c.Item) != c.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
