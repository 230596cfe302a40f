package window

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/randquant"
)

func newMG(uint64) *mg.Summary { return mg.New(32) }

// addMG puts weight n of item x into the view's live epoch.
func addMG(w *Windowed[*mg.Summary], x core.Item, n uint64) {
	w.Update(func(s *mg.Summary) { s.Update(x, n) })
}

func mustAdvance[S any](t testing.TB, w *Windowed[S]) {
	t.Helper()
	if err := w.Advance(); err != nil {
		t.Fatal(err)
	}
}

func mustQuery[S any](t testing.TB, w *Windowed[S], last int) S {
	t.Helper()
	q, err := w.Query(last)
	if err != nil {
		t.Fatalf("last=%d: %v", last, err)
	}
	return q
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"capacity 0":        func() { New(0, newMG) },
		"unregistered type": func() { New(3, func(uint64) *int { return new(int) }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New with %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Epochs rotate out of the window: with capacity 3 at epoch 6 only
// epochs 4, 5 and 6 are left, however much of the window is asked for.
func TestEpochRotation(t *testing.T) {
	w := New(3, newMG)
	if w.Epoch() != 1 || w.Capacity() != 3 {
		t.Fatalf("epoch=%d capacity=%d", w.Epoch(), w.Capacity())
	}
	for e := uint64(1); e <= 6; e++ {
		if e > 1 {
			mustAdvance(t, w)
		}
		addMG(w, core.Item(e), 1<<e) // epoch e weighs 2^e
	}
	if w.Epoch() != 6 {
		t.Fatalf("epoch = %d", w.Epoch())
	}
	for last, want := range map[int]uint64{1: 1 << 6, 2: 1<<6 + 1<<5, 3: 1<<6 + 1<<5 + 1<<4, 6: 1<<6 + 1<<5 + 1<<4} {
		if n := mustQuery(t, w, last).N(); n != want {
			t.Fatalf("last=%d: N = %d, want %d", last, n, want)
		}
	}
	if got := w.p.Stats().Segments[0]; got != 2 {
		t.Fatalf("%d sealed epochs retained behind the live one, want 2", got)
	}
}

// The core property: a window query over the last w epochs answers
// with the single-summary guarantee over exactly those epochs' items.
func TestWindowQueryMatchesWindowStream(t *testing.T) {
	const epochs = 10
	const perEpoch = 5000
	const retain = 4
	w := New(retain, newMG)
	streams := make([][]core.Item, 0, epochs)
	for e := 0; e < epochs; e++ {
		if e > 0 {
			mustAdvance(t, w)
		}
		stream := gen.NewZipf(300, 1.3, uint64(e)+1).Stream(perEpoch)
		streams = append(streams, stream)
		w.Update(func(cur *mg.Summary) {
			for _, x := range stream {
				cur.Update(x, 1)
			}
		})
	}
	for _, last := range []int{1, 2, 4} {
		q := mustQuery(t, w, last)
		if q.N() != uint64(last*perEpoch) {
			t.Fatalf("last=%d: N=%d, want %d", last, q.N(), last*perEpoch)
		}
		truth := exact.NewFreqTable()
		for _, s := range streams[epochs-last:] {
			for _, x := range s {
				truth.Add(x, 1)
			}
		}
		bound := core.MGBound(q.N(), 32)
		if q.ErrorBound() > bound {
			t.Errorf("last=%d: bound %d > %d", last, q.ErrorBound(), bound)
		}
		for _, c := range truth.Counters()[:5] {
			if e := q.Estimate(c.Item); !e.Contains(c.Count) {
				t.Errorf("last=%d: interval %v misses %d for item %d", last, e, c.Count, c.Item)
			}
		}
	}
}

// Querying must not disturb the retained epochs, and the caller owns
// what it gets: mutating an answer changes neither the window nor the
// next answer.
func TestQueryIsNonDestructive(t *testing.T) {
	w := New(3, newMG)
	addMG(w, 1, 5)
	mustAdvance(t, w)
	addMG(w, 2, 7)
	q1 := mustQuery(t, w, 2)
	if q1.N() != 12 {
		t.Fatalf("N = %d, want 12", q1.N())
	}
	q1.Update(3, 100)
	if n := mustQuery(t, w, 1).N(); n != 7 {
		t.Fatalf("live epoch N = %d after a query, want 7", n)
	}
	if n := mustQuery(t, w, 2).N(); n != 12 {
		t.Fatalf("repeat query N = %d, want 12", n)
	}
}

func TestQueryClamping(t *testing.T) {
	w := New(2, newMG)
	addMG(w, 1, 3)
	// last larger than capacity and smaller than 1 both clamp.
	for _, last := range []int{-1, 0, 1, 2, 99} {
		if n := mustQuery(t, w, last).N(); n != 3 {
			t.Fatalf("last=%d: N=%d", last, n)
		}
	}
	// A window nothing was written in is an empty summary, not an error.
	mustAdvance(t, w)
	mustAdvance(t, w)
	if n := mustQuery(t, w, 2).N(); n != 0 {
		t.Fatalf("empty window N = %d", n)
	}
}

func TestWindowWithQuantiles(t *testing.T) {
	w := New(4, func(e uint64) *randquant.Summary { return randquant.NewEpsilon(0.02, e) })
	var last2 []float64
	for e := 0; e < 6; e++ {
		if e > 0 {
			mustAdvance(t, w)
		}
		vals := gen.UniformValues(4000, uint64(e)+10)
		w.Update(func(s *randquant.Summary) { s.UpdateBatch(vals) })
		if e >= 4 {
			last2 = append(last2, vals...)
		}
	}
	q := mustQuery(t, w, 2)
	if q.N() != uint64(len(last2)) {
		t.Fatalf("N = %d, want %d", q.N(), len(last2))
	}
	oracle := exact.QuantilesOf(last2)
	med := q.Quantile(0.5)
	rank := oracle.Rank(med)
	n := uint64(len(last2))
	if rank < n/2-n/25 || rank > n/2+n/25 {
		t.Errorf("median rank %d too far from %d", rank, n/2)
	}
}

// Property: for any sequence of per-epoch weights and any window
// length, the window query's N is exactly the sum of the covered
// epochs' weights.
func TestPropertyWindowWeights(t *testing.T) {
	f := func(weights []uint8, capRaw, lastRaw uint8) bool {
		capacity := int(capRaw%6) + 1
		w := New(capacity, newMG)
		epochWeights := make([]uint64, 0, len(weights)+1)
		for i, wt := range weights {
			if i > 0 {
				mustAdvance(t, w)
			}
			n := uint64(wt%9) + 1
			addMG(w, core.Item(i), n)
			epochWeights = append(epochWeights, n)
		}
		if len(epochWeights) == 0 {
			addMG(w, 0, 1)
			epochWeights = append(epochWeights, 1)
		}
		last := int(lastRaw%8) + 1
		got, err := w.Query(last)
		if err != nil {
			return false
		}
		eff := min(last, capacity, len(epochWeights))
		var want uint64
		for _, n := range epochWeights[len(epochWeights)-eff:] {
			want += n
		}
		return got.N() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A repeated window query is an answer-cache hit while nothing changes
// — no re-merge of the sealed epochs — and an update to the live epoch
// or an Advance is never hidden by the cache.
func TestWindowedQueryMemoization(t *testing.T) {
	w := New(8, newMG)
	for e := 0; e < 5; e++ {
		addMG(w, 1, 10)
		if e < 4 {
			mustAdvance(t, w)
		}
	}
	if n := mustQuery(t, w, 5).N(); n != 50 {
		t.Fatalf("N = %d, want 50", n)
	}
	st := w.p.Stats()
	if n := mustQuery(t, w, 5).N(); n != 50 {
		t.Fatalf("repeat N = %d, want 50", n)
	}
	if got := w.p.Stats(); got.CacheHits != st.CacheHits+1 || got.CacheMisses != st.CacheMisses {
		t.Fatalf("repeat query: cache %+v → %+v, want one more hit and no miss", st, got)
	}

	addMG(w, 2, 7)
	if n := mustQuery(t, w, 5).N(); n != 57 {
		t.Fatalf("post-update N = %d, want 57", n)
	}
	mustAdvance(t, w)
	if n := mustQuery(t, w, 5).N(); n != 47 {
		t.Fatalf("post-advance N = %d, want 47 (four sealed epochs of the five)", n)
	}
}

// Window lengths are cached independently of each other.
func TestWindowedQueryMemoPerLength(t *testing.T) {
	w := New(8, newMG)
	for e := 0; e < 6; e++ {
		addMG(w, 1, 1)
		if e < 5 {
			mustAdvance(t, w)
		}
	}
	for _, last := range []int{1, 3, 6, 3, 1} {
		if n := mustQuery(t, w, last).N(); n != uint64(last) {
			t.Fatalf("last=%d: N = %d", last, n)
		}
	}
}

func BenchmarkWindowedQueryMemoized(b *testing.B) {
	w := New(64, newMG)
	for e := 0; e < 64; e++ {
		w.Update(func(s *mg.Summary) {
			for i := 0; i < 100; i++ {
				s.Update(core.Item(i), 1)
			}
		})
		if e < 63 {
			mustAdvance(b, w)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query(64); err != nil {
			b.Fatal(err)
		}
	}
}
