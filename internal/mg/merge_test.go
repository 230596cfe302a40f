package mg

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func mustFrom(t *testing.T, k int, cs []core.Counter) *Summary {
	t.Helper()
	s, err := FromCounters(k, core.TotalCount(cs), 0, cs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Golden test from §5.1 of the supplied text: the PODS'12 merge of the
// two Frequent summaries (k-majority parameter 5, i.e. 4 counters).
func TestMergeGoldenExample(t *testing.T) {
	s1 := mustFrom(t, 4, []core.Counter{{Item: 2, Count: 4}, {Item: 3, Count: 11}, {Item: 4, Count: 22}, {Item: 5, Count: 33}})
	s2 := mustFrom(t, 4, []core.Counter{{Item: 7, Count: 10}, {Item: 8, Count: 20}, {Item: 9, Count: 30}, {Item: 10, Count: 40}})
	combined := CombinedCounters(s1, s2)

	m, err := merged(s1, s2, (*Summary).Merge)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Item]uint64{4: 2, 9: 10, 5: 13, 10: 20}
	if m.Len() != len(want) {
		t.Fatalf("merged has %d counters: %v", m.Len(), m.Counters())
	}
	for item, count := range want {
		if got := m.Estimate(item).Value; got != count {
			t.Errorf("merged[%d] = %d, want %d", item, got, count)
		}
	}
	// Total error of the PODS merge on this input is (k-1)*20 = 80.
	if te := TotalMergeError(combined, m); te != 80 {
		t.Errorf("total error = %d, want 80", te)
	}
	// The subtracted amount is recorded in the undercount certificate.
	if m.ErrorBound() != 20 {
		t.Errorf("ErrorBound = %d, want 20", m.ErrorBound())
	}
}

func TestMergeMismatchedK(t *testing.T) {
	a, b := New(4), New(8)
	if err := a.Merge(b); !errors.Is(err, core.ErrMismatchedK) {
		t.Fatalf("err = %v, want ErrMismatchedK", err)
	}
	if err := a.Merge(nil); !errors.Is(err, core.ErrNilSummary) {
		t.Fatalf("err = %v, want ErrNilSummary", err)
	}
}

func TestMergeNoPruneWhenSmall(t *testing.T) {
	a, b := New(4), New(4)
	a.Update(1, 5)
	a.Update(2, 3)
	b.Update(2, 2)
	b.Update(3, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// 3 distinct items <= k=4: exact combination, no error.
	if a.ErrorBound() != 0 {
		t.Errorf("ErrorBound = %d, want 0", a.ErrorBound())
	}
	for item, want := range map[core.Item]uint64{1: 5, 2: 5, 3: 7} {
		if got := a.Estimate(item).Value; got != want {
			t.Errorf("est[%d] = %d, want %d", item, got, want)
		}
	}
	if a.N() != 17 {
		t.Errorf("N = %d, want 17", a.N())
	}
}

func TestMergeDoesNotModifyOther(t *testing.T) {
	a, b := New(2), New(2)
	a.Update(1, 5)
	a.Update(2, 4)
	b.Update(3, 3)
	b.Update(4, 2)
	bBefore := b.Counters()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	bAfter := b.Counters()
	if len(bBefore) != len(bAfter) {
		t.Fatal("merge modified other")
	}
	for i := range bBefore {
		if bBefore[i] != bAfter[i] {
			t.Fatal("merge modified other's counters")
		}
	}
}

// mergeTree folds summaries pairwise in a balanced binary tree using
// the provided merge function.
func mergeTree(t *testing.T, parts []*Summary, merge func(a, b *Summary) error) *Summary {
	t.Helper()
	for len(parts) > 1 {
		var next []*Summary
		for i := 0; i+1 < len(parts); i += 2 {
			if err := merge(parts[i], parts[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, parts[i])
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	return parts[0]
}

// The mergeability theorem (PODS'12 Thm 2.2): after merging summaries
// of arbitrary partitions in a tree, the merged summary obeys the same
// bound n/(k+1) as a single-site summary, for every partitioning
// scheme and both merge algorithms.
func TestMergeTreePreservesBound(t *testing.T) {
	const n = 120000
	const k = 24
	stream := gen.NewZipf(3000, 1.2, 99).Stream(n)
	truth := exact.FreqOf(stream)

	partitionings := map[string][][]core.Item{
		"contiguous": gen.PartitionContiguous(stream, 16),
		"roundrobin": gen.PartitionRoundRobin(stream, 16),
		"random":     gen.PartitionRandomSizes(stream, 16, 5),
		"byhash":     gen.PartitionByHash(stream, 16, func(x core.Item) uint64 { return uint64(x) * 2654435761 }),
	}
	merges := map[string]func(a, b *Summary) error{
		"pods":     (*Summary).Merge,
		"lowerror": (*Summary).MergeLowError,
	}
	for pname, parts := range partitionings {
		for mname, mfn := range merges {
			summaries := make([]*Summary, len(parts))
			for i, p := range parts {
				summaries[i] = New(k)
				for _, x := range p {
					summaries[i].Update(x, 1)
				}
			}
			m := mergeTree(t, summaries, mfn)
			if m.N() != n {
				t.Fatalf("%s/%s: N=%d, want %d", pname, mname, m.N(), n)
			}
			bound := core.MGBound(n, k)
			if m.ErrorBound() > bound {
				t.Errorf("%s/%s: ErrorBound %d > %d", pname, mname, m.ErrorBound(), bound)
			}
			if m.Len() > k {
				t.Errorf("%s/%s: size %d > k", pname, mname, m.Len())
			}
			for _, c := range truth.Counters() {
				e := m.Estimate(c.Item)
				if e.Value > c.Count {
					t.Fatalf("%s/%s: overestimate of %d: %d > %d", pname, mname, c.Item, e.Value, c.Count)
				}
				if c.Count-e.Value > bound {
					t.Fatalf("%s/%s: undercount of %d beyond bound: est %d true %d bound %d",
						pname, mname, c.Item, e.Value, c.Count, bound)
				}
			}
		}
	}
}

// Sequential (one-way) merging must agree with the tree bound too:
// mergeability means *any* shape.
func TestSequentialMergePreservesBound(t *testing.T) {
	const n = 60000
	const k = 16
	stream := gen.NewZipf(2000, 1.5, 3).Stream(n)
	parts := gen.PartitionContiguous(stream, 30)
	acc := New(k)
	for _, p := range parts {
		s := New(k)
		for _, x := range p {
			s.Update(x, 1)
		}
		if err := acc.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if acc.ErrorBound() > core.MGBound(n, k) {
		t.Errorf("ErrorBound %d > %d", acc.ErrorBound(), core.MGBound(n, k))
	}
	truth := exact.FreqOf(stream)
	for _, c := range truth.Counters()[:10] {
		e := acc.Estimate(c.Item)
		if !e.Contains(c.Count) {
			t.Errorf("interval %v misses %d for item %d", e, c.Count, c.Item)
		}
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a := New(4)
	a.Update(1, 7)
	empty := New(4)
	if err := a.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if a.N() != 7 || a.Estimate(1).Value != 7 || a.ErrorBound() != 0 {
		t.Fatal("merge with empty changed state")
	}
	if err := empty.MergeLowError(a); err != nil {
		t.Fatal(err)
	}
	if empty.N() != 7 || empty.Estimate(1).Value != 7 {
		t.Fatal("merge into empty lost state")
	}
}

func TestCombinedCounters(t *testing.T) {
	a := mustFrom(t, 3, []core.Counter{{Item: 1, Count: 5}, {Item: 2, Count: 3}})
	b := mustFrom(t, 3, []core.Counter{{Item: 2, Count: 4}, {Item: 3, Count: 1}})
	got := CombinedCounters(a, b)
	want := []core.Counter{{Item: 3, Count: 1}, {Item: 1, Count: 5}, {Item: 2, Count: 7}}
	if len(got) != len(want) {
		t.Fatalf("combined = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("combined = %v, want %v", got, want)
		}
	}
}

// merged returns a clone of a with b folded in by merge (Merge or
// MergeLowError): the two-way merge that leaves both operands alone.
func merged(a, b *Summary, merge func(*Summary, *Summary) error) (*Summary, error) {
	out := a.Clone()
	return out, merge(out, b)
}
