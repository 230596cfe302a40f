package mergetree

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/mg"
)

// counterBox is a trivial mergeable "summary" (an exact counter) used
// to verify topology mechanics independent of sketch behavior.
type counterBox struct {
	n      uint64
	merges int
}

func mergeBoxes(dst, src *counterBox) error {
	dst.n += src.n
	dst.merges++
	return nil
}

func boxes(counts ...uint64) []*counterBox {
	out := make([]*counterBox, len(counts))
	for i, c := range counts {
		out[i] = &counterBox{n: c}
	}
	return out
}

func TestSequential(t *testing.T) {
	got, err := Sequential(boxes(1, 2, 3, 4), mergeBoxes)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != 10 || got.merges != 3 {
		t.Fatalf("n=%d merges=%d", got.n, got.merges)
	}
}

func TestBinary(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 17} {
		counts := make([]uint64, size)
		var want uint64
		for i := range counts {
			counts[i] = uint64(i + 1)
			want += counts[i]
		}
		got, err := Binary(boxes(counts...), mergeBoxes)
		if err != nil {
			t.Fatal(err)
		}
		if got.n != want {
			t.Fatalf("size=%d: n=%d, want %d", size, got.n, want)
		}
	}
}

func TestRandom(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		got, err := Random(boxes(1, 2, 3, 4, 5, 6, 7), seed, mergeBoxes)
		if err != nil {
			t.Fatal(err)
		}
		if got.n != 28 {
			t.Fatalf("seed=%d: n=%d, want 28", seed, got.n)
		}
	}
}

func TestParallel(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, size := range []int{1, 2, 3, 9, 64} {
			counts := make([]uint64, size)
			var want uint64
			for i := range counts {
				counts[i] = uint64(i * 3)
				want += counts[i]
			}
			got, err := Parallel(boxes(counts...), workers, mergeBoxes)
			if err != nil {
				t.Fatal(err)
			}
			if got.n != want {
				t.Fatalf("workers=%d size=%d: n=%d, want %d", workers, size, got.n, want)
			}
		}
	}
}

func TestEmptyParts(t *testing.T) {
	if _, err := Sequential(nil, mergeBoxes); !errors.Is(err, ErrNoParts) {
		t.Error("Sequential accepted empty")
	}
	if _, err := Binary(nil, mergeBoxes); !errors.Is(err, ErrNoParts) {
		t.Error("Binary accepted empty")
	}
	if _, err := Random(nil, 1, mergeBoxes); !errors.Is(err, ErrNoParts) {
		t.Error("Random accepted empty")
	}
	if _, err := Parallel(nil, 4, mergeBoxes); !errors.Is(err, ErrNoParts) {
		t.Error("Parallel accepted empty")
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	failing := func(dst, src *counterBox) error {
		if src.n == 3 {
			return boom
		}
		return mergeBoxes(dst, src)
	}
	if _, err := Sequential(boxes(1, 2, 3, 4), failing); !errors.Is(err, boom) {
		t.Errorf("Sequential err = %v", err)
	}
	if _, err := Binary(boxes(1, 3, 2, 2), failing); !errors.Is(err, boom) {
		t.Errorf("Binary err = %v", err)
	}
	if _, err := Random(boxes(1, 3, 2, 2), 7, failing); !errors.Is(err, boom) {
		t.Errorf("Random err = %v", err)
	}
	// Parallel must not deadlock on error (the merge order is
	// nondeterministic, so the error may or may not fire; both are
	// acceptable, but the call must return).
	for w := 1; w <= 4; w++ {
		_, err := Parallel(boxes(1, 3, 2, 2, 5, 6), w, failing)
		if err != nil && !errors.Is(err, boom) {
			t.Errorf("Parallel err = %v", err)
		}
	}
}

// End-to-end: all four topologies produce MG summaries within the
// bound on a real workload, and all yield the identical N.
func TestTopologiesWithMG(t *testing.T) {
	const n = 60000
	const k = 16
	stream := gen.NewZipf(2000, 1.3, 5).Stream(n)
	truth := exact.FreqOf(stream)
	parts := gen.PartitionContiguous(stream, 12)
	build := func(part []core.Item) *mg.Summary {
		s := mg.New(k)
		for _, x := range part {
			s.Update(x, 1)
		}
		return s
	}
	merge := MergeFunc[*mg.Summary]((*mg.Summary).Merge)

	folds := map[string]func(parts []*mg.Summary, m MergeFunc[*mg.Summary]) (*mg.Summary, error){
		"sequential": Sequential[*mg.Summary],
		"binary":     Binary[*mg.Summary],
		"random": func(p []*mg.Summary, m MergeFunc[*mg.Summary]) (*mg.Summary, error) {
			return Random(p, 9, m)
		},
		"parallel": func(p []*mg.Summary, m MergeFunc[*mg.Summary]) (*mg.Summary, error) {
			return Parallel(p, 4, m)
		},
	}
	for name, fold := range folds {
		got, err := BuildAndMerge(parts, build, fold, merge)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N() != n {
			t.Fatalf("%s: N=%d, want %d", name, got.N(), n)
		}
		if got.ErrorBound() > core.MGBound(n, k) {
			t.Errorf("%s: bound %d > %d", name, got.ErrorBound(), core.MGBound(n, k))
		}
		top := truth.Counters()[0]
		if e := got.Estimate(top.Item); !e.Contains(top.Count) {
			t.Errorf("%s: top item interval %v misses %d", name, e, top.Count)
		}
	}
}

func TestParallelManyParts(t *testing.T) {
	const parts = 500
	counts := make([]uint64, parts)
	var want uint64
	for i := range counts {
		counts[i] = uint64(i)
		want += counts[i]
	}
	got, err := Parallel(boxes(counts...), 8, mergeBoxes)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != want {
		t.Fatalf("n=%d, want %d", got.n, want)
	}
	if got.merges == 0 {
		t.Fatal("no merges recorded")
	}
}

func ExampleSequential() {
	parts := boxes(10, 20, 30)
	total, _ := Sequential(parts, mergeBoxes)
	fmt.Println(total.n)
	// Output: 60
}

// Parallel must return the first merge error and stop claiming new
// work: a worker that observes the recorded error exits before
// starting another merge, so the number of merge calls is bounded by
// the worker count — not by the partition count.
func TestParallelPropagatesFirstError(t *testing.T) {
	sentinel := errors.New("incompatible parts")
	const workers = 4
	parts := boxes(make([]uint64, 4*workers)...)
	var calls atomic.Int64
	_, err := Parallel(parts, workers, func(dst, src *counterBox) error {
		calls.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v, want the first merge error", err)
	}
	if got := calls.Load(); got > workers {
		t.Fatalf("%d merge calls after the first error, want <= %d (one in flight per worker)", got, workers)
	}
}

// Satellite regression for the pairing reduction's error path: a
// MergeFunc failing at every possible call position must neither
// deadlock nor strand a worker, and the sentinel must surface. The old
// channel-based Parallel could leave workers blocked on the pending
// channel when a merge failed mid-drain; the pairing reduction has no
// queue to block on, so every one of these calls must return promptly.
func TestParallelFailingMergeAtEveryPosition(t *testing.T) {
	sentinel := errors.New("injected failure")
	for _, size := range []int{2, 3, 7, 16, 33} {
		maxCalls := size - 1 // merges performed by a clean fold
		for _, workers := range []int{1, 2, 4, 8} {
			for failAt := 0; failAt < maxCalls; failAt++ {
				var calls atomic.Int64
				_, err := Parallel(boxes(make([]uint64, size)...), workers,
					func(dst, src *counterBox) error {
						if calls.Add(1)-1 == int64(failAt) {
							return sentinel
						}
						return mergeBoxes(dst, src)
					})
				if !errors.Is(err, sentinel) {
					t.Fatalf("size=%d workers=%d failAt=%d: err=%v, want sentinel",
						size, workers, failAt, err)
				}
			}
		}
	}
}

// The reduction must stay correct when merges race against the claim
// counter: many parts, many workers, exact counting.
func TestParallelTreeShape(t *testing.T) {
	const size = 129 // odd leftovers at several rounds
	counts := make([]uint64, size)
	var want uint64
	for i := range counts {
		counts[i] = uint64(i + 1)
		want += counts[i]
	}
	for _, workers := range []int{1, 3, 16} {
		got, err := Parallel(boxes(counts...), workers, mergeBoxes)
		if err != nil {
			t.Fatal(err)
		}
		if got.n != want {
			t.Fatalf("workers=%d: n=%d, want %d", workers, got.n, want)
		}
	}
}

// TestParallelAllocs pins what Parallel allocates: its buffer and error
// recorder, and per round it runs on goroutines, the goroutines — never
// anything per merge or per claimed pair. 64 parts on two workers run
// five such rounds.
func TestParallelAllocs(t *testing.T) {
	vals := make([]int, 64)
	parts := make([]*int, 64)
	merge := func(a, b *int) error { *a += *b; return nil }
	if allocs := testing.AllocsPerRun(50, func() {
		for i := range parts {
			vals[i] = 1
			parts[i] = &vals[i]
		}
		if s, err := Parallel(parts, 2, merge); err != nil || *s != 64 {
			t.Fatalf("Parallel = %v, %v; want 64", *s, err)
		}
	}); allocs > 25 {
		t.Fatalf("Parallel over 64 parts on 2 workers: %v allocs, want <= 25", allocs)
	}
}
