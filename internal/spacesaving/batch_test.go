package spacesaving

import (
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

// TestBatchKeepsHeaviest: a batch applied to an empty summary lands
// each (item, count) pair above every count held, so eviction is
// oldest-first and the monitored items are exactly the batch's k
// heaviest — as a multiset of true counts, ties at the boundary either
// way.
func TestBatchKeepsHeaviest(t *testing.T) {
	for _, k := range []int{1, 16, 64} {
		xs := gen.NewZipf(2048, 1.1, uint64(k)).Stream(8192)
		truth := exact.FreqOf(xs)
		s := New(k)
		s.UpdateBatch(xs)
		var got, want []uint64
		for _, c := range s.Counters() {
			got = append(got, truth.Count(c.Item))
		}
		for _, c := range truth.Counters() {
			want = append(want, c.Count)
		}
		slices.Sort(got)
		slices.Sort(want)
		if want = want[len(want)-k:]; !slices.Equal(got, want) {
			t.Fatalf("k=%d: monitored items' true counts %v, want the heaviest %v", k, got, want)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
