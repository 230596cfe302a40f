// Quickstart: build two Misra–Gries summaries on two halves of a
// stream, merge them, and query — the 30-second tour of the library.
// An answer outside its guarantee panics.
package main

import (
	"fmt"
	"math"

	mergesum "repro"
)

func main() {
	// A skewed stream: item 7 is hot, everything else is noise.
	var stream []mergesum.Item
	for i := 0; i < 10000; i++ {
		if i%3 == 0 {
			stream = append(stream, 7)
		} else {
			stream = append(stream, mergesum.Item(i))
		}
	}

	// Two sites each see half the stream, ingested via the batch path
	// (one call per site instead of one per item).
	left, right := mergesum.NewMisraGries(8), mergesum.NewMisraGries(8)
	left.UpdateBatch(stream[:len(stream)/2])
	right.UpdateBatch(stream[len(stream)/2:])

	// Merge right into left. The merged summary obeys the same error
	// bound n/(k+1) as a single summary over the whole stream — that
	// is the mergeability theorem.
	if err := left.Merge(right); err != nil {
		panic(err)
	}

	fmt.Printf("stream length: %d\n", left.N())
	fmt.Printf("error bound:   %d (certificate %d)\n",
		mergesum.MGBound(left.N(), left.K()), left.ErrorBound())

	est := left.Estimate(7)
	fmt.Printf("item 7:        estimate %s (true count 3334)\n", est)
	if est.Lower > 3334 || est.Upper < 3334 {
		panic("quickstart: the estimate interval misses the true count")
	}

	threshold := mergesum.HeavyThreshold(left.N(), 10)
	fmt.Printf("heavy hitters above %d:\n", threshold)
	for _, c := range left.HeavyHitters(threshold) {
		fmt.Printf("  item %d ~%d\n", c.Item, c.Count)
	}

	// The same library also does quantiles: a mergeable summary of a
	// value stream.
	q := mergesum.NewQuantile(0.01, 42)
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(i)
	}
	q.UpdateBatch(vals)
	med, p99 := q.Quantile(0.5), q.Quantile(0.99)
	fmt.Printf("median of 0..99999 ~ %.0f, p99 ~ %.0f\n", med, p99)
	// Value v has rank v+1 here, so a rank error of 1% of n is a value
	// off by at most 1,000.
	if math.Abs(med-49999) > 1000 || math.Abs(p99-98999) > 1000 {
		panic("quickstart: a quantile's rank error exceeds 1% of n")
	}
}
