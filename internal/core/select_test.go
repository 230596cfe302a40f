package core

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200) + 1
		vals := make([]uint64, n)
		for i := range vals {
			// Small value range forces heavy duplication, the regime
			// prune actually sees (many equal low counts).
			vals[i] = uint64(rng.Intn(8))
		}
		sorted := append([]uint64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		k := rng.Intn(n)
		if got := SelectKth(vals, k); got != sorted[k] {
			t.Fatalf("trial %d: SelectKth(%d of %d) = %d, want %d", trial, k, n, got, sorted[k])
		}
	}
}
