package mergesum_test

import (
	"fmt"

	mergesum "repro"
)

// Two sites summarize disjoint halves of a stream and merge — the
// fundamental operation of the library.
func ExampleMisraGries() {
	left, right := mergesum.NewMisraGries(4), mergesum.NewMisraGries(4)
	for i := 0; i < 60; i++ {
		left.Update(7, 1) // site A sees a hot item
	}
	for i := 0; i < 40; i++ {
		right.Update(mergesum.Item(i), 1) // site B sees noise
	}
	if err := left.Merge(right); err != nil {
		panic(err)
	}
	fmt.Println("n:", left.N())
	fmt.Println("item 7 lower bound:", left.Estimate(7).Lower)
	// Output:
	// n: 100
	// item 7 lower bound: 60
}

// The low-total-error merge reproduces the worked example of the
// follow-up text (§5.1): same inputs, strictly more accurate output
// than the PODS'12 prune.
func ExampleMisraGries_mergeLowError() {
	build := func(items []mergesum.Item, counts []uint64) *mergesum.MisraGries {
		s := mergesum.NewMisraGries(4)
		for i := range items {
			s.Update(items[i], counts[i])
		}
		return s
	}
	s1 := build([]mergesum.Item{2, 3, 4, 5}, []uint64{4, 11, 22, 33})
	s2 := build([]mergesum.Item{7, 8, 9, 10}, []uint64{10, 20, 30, 40})
	if err := s1.MergeLowError(s2); err != nil {
		panic(err)
	}
	for _, c := range s1.Counters() {
		fmt.Printf("item %d: %d\n", c.Item, c.Count)
	}
	// Output:
	// item 4: 2
	// item 9: 14
	// item 5: 23
	// item 10: 31
}

// Quantile summaries merge across shards and answer percentile queries
// over the union.
func ExampleQuantile() {
	shards := make([]*mergesum.Quantile, 4)
	for i := range shards {
		shards[i] = mergesum.NewQuantile(0.01, uint64(i)+1)
		for v := 0; v < 25000; v++ {
			shards[i].Update(float64(i*25000 + v))
		}
	}
	merged, err := mergesum.MergeBinary(shards, (*mergesum.Quantile).Merge)
	if err != nil {
		panic(err)
	}
	// The union is 0..99999; the median is within 1% of 50000.
	med := merged.Quantile(0.5)
	fmt.Println("median within 1%:", med > 49000 && med < 51000)
	fmt.Println("n:", merged.N())
	// Output:
	// median within 1%: true
	// n: 100000
}

// Distinct counting across sites that see overlapping users: adding
// per-site counts double-counts, merging KMV summaries does not.
func ExampleKMV() {
	a, b := mergesum.NewKMV(1024, 7), mergesum.NewKMV(1024, 7)
	for u := 0; u < 600; u++ {
		a.Update(mergesum.Item(u)) // users 0..599
	}
	for u := 300; u < 900; u++ {
		b.Update(mergesum.Item(u)) // users 300..899 (overlap 300..599)
	}
	if err := a.Merge(b); err != nil {
		panic(err)
	}
	fmt.Println("distinct:", a.Estimate()) // 900 distinct, fewer than k: exact
	// Output:
	// distinct: 900
}

// A sliding window of heavy hitters assembled by merging tumbling
// epochs.
func ExampleWindowed() {
	w := mergesum.NewWindowed(3, func(uint64) *mergesum.MisraGries {
		return mergesum.NewMisraGries(8)
	})
	for epoch := 0; epoch < 5; epoch++ {
		if epoch > 0 {
			if err := w.Advance(); err != nil {
				panic(err)
			}
		}
		hot := mergesum.Item(epoch) // each epoch has its own hot item
		w.Update(func(s *mergesum.MisraGries) { s.Update(hot, 100) })
	}
	q, err := w.Query(2)
	if err != nil {
		panic(err)
	}
	// Only epochs 4 and 3 are in the window.
	fmt.Println("window n:", q.N())
	fmt.Println("item 4:", q.Estimate(4).Value, "item 1:", q.Estimate(1).Value)
	// Output:
	// window n: 200
	// item 4: 100 item 1: 0
}

// SpaceSaving never loses a heavy hitter, and its low-total-error
// merge reproduces the follow-up text's §5.2 worked example.
func ExampleSpaceSaving_mergeLowError() {
	build := func(items []mergesum.Item, counts []uint64) *mergesum.SpaceSaving {
		s := mergesum.NewSpaceSaving(5)
		for i := range items {
			s.Update(items[i], counts[i])
		}
		return s
	}
	s1 := build([]mergesum.Item{1, 2, 3, 4, 5}, []uint64{5, 7, 12, 14, 18})
	s2 := build([]mergesum.Item{6, 7, 8, 9, 10}, []uint64{4, 16, 17, 19, 23})
	if err := s1.MergeLowError(s2); err != nil {
		panic(err)
	}
	for _, c := range s1.Counters() {
		fmt.Printf("item %d: %d\n", c.Item, c.Count)
	}
	// Output:
	// item 7: 12
	// item 5: 13
	// item 8: 15
	// item 9: 22
	// item 10: 28
}

// QDigest answers integer quantiles deterministically over a fixed
// universe and merges by adding node counts.
func ExampleQDigest() {
	a := mergesum.NewQDigest(10, 0.05) // universe [0, 1024)
	b := mergesum.NewQDigest(10, 0.05)
	for v := uint64(0); v < 512; v++ {
		a.Update(v, 1)
	}
	for v := uint64(512); v < 1024; v++ {
		b.Update(v, 1)
	}
	if err := a.Merge(b); err != nil {
		panic(err)
	}
	med := a.Quantile(0.5)
	fmt.Println("n:", a.N())
	fmt.Println("median within bound:", med >= 512-a.ErrorBound() && med <= 512+a.ErrorBound())
	// Output:
	// n: 1024
	// median within bound: true
}

// TopK gives a Count-Min sketch a mergeable heavy-hitter directory.
func ExampleTopK() {
	a := mergesum.NewTopK(3, 256, 4, 1)
	b := mergesum.NewTopK(3, 256, 4, 1)
	a.Update(100, 50)
	a.Update(200, 10)
	b.Update(100, 25)
	b.Update(300, 40)
	if err := a.Merge(b); err != nil {
		panic(err)
	}
	for _, c := range a.Top() {
		fmt.Printf("item %d: %d\n", c.Item, c.Count)
	}
	// Output:
	// item 100: 75
	// item 300: 40
	// item 200: 10
}
