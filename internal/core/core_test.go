package core

import (
	"testing"
	"testing/quick"
)

func TestEstimateContains(t *testing.T) {
	e := Estimate{Value: 10, Lower: 8, Upper: 12}
	for f, want := range map[uint64]bool{7: false, 8: true, 10: true, 12: true, 13: false} {
		if got := e.Contains(f); got != want {
			t.Errorf("Contains(%d) = %v, want %v", f, got, want)
		}
	}
	if e.Width() != 4 {
		t.Errorf("Width() = %d, want 4", e.Width())
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Value: 5, Lower: 3, Upper: 9}
	if got, want := e.String(), "5 [3,9]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMGBound(t *testing.T) {
	cases := []struct {
		n    uint64
		k    int
		want uint64
	}{
		{0, 10, 0},
		{100, 9, 10},
		{100, 99, 1},
		{100, 100, 0},
		{1000, 0, 1000},
	}
	for _, c := range cases {
		if got := MGBound(c.n, c.k); got != c.want {
			t.Errorf("MGBound(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestSSBound(t *testing.T) {
	if got := SSBound(100, 10); got != 10 {
		t.Errorf("SSBound(100, 10) = %d, want 10", got)
	}
	if got := SSBound(99, 10); got != 9 {
		t.Errorf("SSBound(99, 10) = %d, want 9", got)
	}
}

func TestSSBoundPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SSBound(1, 0) did not panic")
		}
	}()
	SSBound(1, 0)
}

func TestMGBoundPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MGBound(1, -1) did not panic")
		}
	}()
	MGBound(1, -1)
}

func TestHeavyThreshold(t *testing.T) {
	// floor(n/k)+1, Definition 1.4 of the k-majority problem.
	if got := HeavyThreshold(100, 5); got != 21 {
		t.Errorf("HeavyThreshold(100, 5) = %d, want 21", got)
	}
	if got := HeavyThreshold(99, 5); got != 20 {
		t.Errorf("HeavyThreshold(99, 5) = %d, want 20", got)
	}
}

func TestSortCountersAsc(t *testing.T) {
	cs := []Counter{{3, 5}, {1, 2}, {2, 5}, {9, 1}}
	SortCountersAsc(cs, nil)
	want := []Counter{{9, 1}, {1, 2}, {2, 5}, {3, 5}}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("SortCountersAsc = %v, want %v", cs, want)
		}
	}
}

func TestSortCountersDesc(t *testing.T) {
	cs := []Counter{{3, 5}, {1, 2}, {2, 5}, {9, 1}}
	SortCountersDesc(cs)
	want := []Counter{{2, 5}, {3, 5}, {1, 2}, {9, 1}}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("SortCountersDesc = %v, want %v", cs, want)
		}
	}
}

func TestTotalCount(t *testing.T) {
	if got := TotalCount(nil); got != 0 {
		t.Errorf("TotalCount(nil) = %d, want 0", got)
	}
	if got := TotalCount([]Counter{{1, 4}, {2, 6}}); got != 10 {
		t.Errorf("TotalCount = %d, want 10", got)
	}
}

func TestTopCounters(t *testing.T) {
	in := []Counter{{1, 5}, {2, 9}, {3, 1}, {4, 7}}
	got := TopCounters(in, 2)
	if len(got) != 2 || got[0] != (Counter{2, 9}) || got[1] != (Counter{4, 7}) {
		t.Fatalf("TopCounters = %v", got)
	}
	// Input must not be reordered.
	if in[0] != (Counter{1, 5}) {
		t.Fatal("TopCounters mutated its input")
	}
	if got := TopCounters(in, 10); len(got) != 4 {
		t.Fatalf("TopCounters with large k returned %d counters", len(got))
	}
}

// Property: sorting ascending then summing equals summing unsorted, and
// the ascending order is actually non-decreasing.
func TestSortCountersAscProperties(t *testing.T) {
	f := func(items []uint64, counts []uint64) bool {
		n := len(items)
		if len(counts) < n {
			n = len(counts)
		}
		cs := make([]Counter, n)
		for i := 0; i < n; i++ {
			cs[i] = Counter{Item(items[i]), counts[i] % 1000}
		}
		before := TotalCount(cs)
		SortCountersAsc(cs, nil)
		if TotalCount(cs) != before {
			return false
		}
		for i := 1; i < len(cs); i++ {
			if cs[i-1].Count > cs[i].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
