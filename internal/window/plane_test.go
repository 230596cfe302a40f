package window

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// mustPlane builds a running plane over the named registry family.
func mustPlane(t testing.TB, kind string, l Ladder) (*Plane, *registry.Entry) {
	t.Helper()
	ent, ok := registry.ByName(kind)
	if !ok {
		t.Fatalf("%s not registered", kind)
	}
	p, err := NewPlane(ent, nil, l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, ent
}

// sealExampleEpochs absorbs ent.Example(weights[i]) into epoch i+1 and
// advances past it; a zero weight leaves the epoch empty.
func sealExampleEpochs(t testing.TB, p *Plane, ent *registry.Entry, weights []int) {
	t.Helper()
	for _, n := range weights {
		if n > 0 {
			if _, err := p.Absorb(ent.Example(n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
}

// exampleN returns the total weight of ent.Example(n). Examples are
// deterministic, so this is the exact expected contribution of an
// epoch seeded with Example(n).
func exampleN(ent *registry.Entry, n int) uint64 {
	return ent.N(ent.Example(n))
}

func TestLadderNormalize(t *testing.T) {
	l, err := Ladder{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if l.Fan != 8 || l.Levels != 3 || len(l.Horizon) != 3 {
		t.Fatalf("zero ladder normalized to %+v", l)
	}
	if l.Horizon[0] != 32 || l.Horizon[1] != 256 || l.Horizon[2] != 2048 {
		t.Fatalf("default horizons = %v", l.Horizon)
	}
	if _, err := (Ladder{Fan: 1, Levels: 2}).normalize(); err == nil {
		t.Fatal("fan 1 with 2 levels accepted")
	}
	if _, err := (Ladder{Fan: 8, Levels: 0, Horizon: []uint64{1}}).normalize(); err == nil {
		t.Fatal("0 levels accepted")
	}
}

// The roll-up invariant: after quiescing, every fan-aligned completed
// block is sealed at every level, each epoch counted exactly once per
// level — so a cover of [1, 64] is one level-2 segment, not 64, and a
// long window costs one piece per top-level span, not one per epoch.
func TestPlaneRollupLadder(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 8, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}})
	weights := make([]int, 1024)
	for i := range weights {
		weights[i] = i%16 + 1 // any non-empty epoch seals a segment
	}
	sealExampleEpochs(t, p, ent, weights)
	p.Quiesce()

	st := p.Stats()
	if st.Epoch != 1025 {
		t.Fatalf("epoch = %d", st.Epoch)
	}
	// 1024 level-0 segments, 128 complete 8-blocks, 16 complete 64-blocks.
	want := []int{1024, 128, 16}
	for lv, n := range want {
		if st.Segments[lv] != n {
			t.Fatalf("level %d: %d segments, want %d (stats %+v)", lv, st.Segments[lv], n, st)
		}
	}
	if st.RollupErrs != 0 || st.Pending != 0 {
		t.Fatalf("rollup errors/pending: %+v", st)
	}

	// Aligned windows are covered by top-level segments alone: if the
	// planner stopped using coarse segments these would be 64, 256 and
	// 1024 pieces.
	for _, tc := range []struct{ from, to, pieces uint64 }{
		{1, 64, 1},
		{769, 1024, 4},
		{1, 1024, 16},
	} {
		cov, err := p.Cover(tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(cov.Segments)) != tc.pieces {
			t.Fatalf("cover [%d,%d] = %d pieces, want %d", tc.from, tc.to, len(cov.Segments), tc.pieces)
		}
		for _, seg := range cov.Segments {
			if seg.Level != 2 {
				t.Fatalf("cover [%d,%d] uses a level-%d segment [%d,%d], want level 2 only",
					tc.from, tc.to, seg.Level, seg.From, seg.To)
			}
		}
	}
	// [3, 100]: ragged edges decompose into O(log n) pieces, strictly
	// fewer than the 98 per-epoch merges of the flat plan.
	cov, err := p.Cover(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Segments) >= 30 {
		t.Fatalf("cover [3,100] = %d pieces, want O(log n)", len(cov.Segments))
	}
	var covered uint64
	prev := uint64(2)
	for _, seg := range cov.Segments {
		if seg.From != prev+1 {
			t.Fatalf("cover gap: segment starts at %d after %d", seg.From, prev)
		}
		covered += seg.To - seg.From + 1
		prev = seg.To
	}
	if covered != 98 || prev != 100 {
		t.Fatalf("cover spans %d epochs ending at %d, want 98 ending at 100", covered, prev)
	}
}

// A ladder query must agree exactly (in weight, and for this family
// in bytes) with the flat per-epoch plan over the same range. The flat
// reference is a second, one-level plane fed the same absorbs: with no
// roll-ups, every cover it plans is one piece per epoch.
func TestPlaneQueryMatchesFlat(t *testing.T) {
	p, ent := mustPlane(t, "countmin", Ladder{Fan: 4, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}})
	ref, _ := mustPlane(t, "countmin", Ladder{Fan: 4, Levels: 1, Horizon: []uint64{1 << 20}})
	weights := make([]int, 40)
	for i := range weights {
		weights[i] = 10*i + 7
	}
	sealExampleEpochs(t, p, ent, weights)
	sealExampleEpochs(t, ref, ent, weights)
	p.Quiesce()

	for _, r := range [][2]uint64{{1, 16}, {2, 37}, {5, 5}, {1, 40}} {
		ladder, err := p.QueryEncoded(r[0], r[1])
		if err != nil {
			t.Fatalf("[%d,%d]: %v", r[0], r[1], err)
		}
		flat, err := ref.QueryEncoded(r[0], r[1])
		if err != nil {
			t.Fatalf("[%d,%d] flat: %v", r[0], r[1], err)
		}
		cov, err := ref.Cover(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if want := int(r[1] - r[0] + 1); len(cov.Segments) != want {
			t.Fatalf("[%d,%d]: flat reference planned %d pieces, want %d", r[0], r[1], len(cov.Segments), want)
		}
		if !bytes.Equal(ladder, flat) {
			t.Fatalf("[%d,%d]: ladder and flat frames differ (%d vs %d bytes)", r[0], r[1], len(ladder), len(flat))
		}
	}
}

// Queries ending at the live epoch fold in the un-sealed summary and
// observe every absorbed update immediately.
func TestPlaneLiveQueries(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 4, Levels: 2})
	sealExampleEpochs(t, p, ent, []int{100, 200})
	if _, err := p.Absorb(ent.Example(50)); err != nil {
		t.Fatal(err)
	}

	w100, w200 := exampleN(ent, 100), exampleN(ent, 200)
	w50, w25 := exampleN(ent, 50), exampleN(ent, 25)

	v, err := p.Query(1, 0) // 0 = through the live epoch
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), w100+w200+w50; n != want {
		t.Fatalf("live query N = %d, want %d", n, want)
	}
	if _, err := p.Absorb(ent.Example(25)); err != nil {
		t.Fatal(err)
	}
	v, err = p.Query(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), w100+w200+w50+w25; n != want {
		t.Fatalf("live query after absorb N = %d, want %d", n, want)
	}

	// Sealed-only query ignores the live epoch.
	v, err = p.Query(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), w100+w200; n != want {
		t.Fatalf("sealed query N = %d, want %d", n, want)
	}
}

// Empty epochs contribute nothing and never block a cover.
func TestPlaneEmptyEpochs(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 4, Levels: 2, Horizon: []uint64{1 << 20, 1 << 20}})
	sealExampleEpochs(t, p, ent, []int{10, 0, 0, 40, 0, 60})
	p.Quiesce()
	v, err := p.Query(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), exampleN(ent, 10)+exampleN(ent, 40)+exampleN(ent, 60); n != want {
		t.Fatalf("N = %d, want %d", n, want)
	}
	// A range of only empty epochs has nothing to summarize.
	if _, err := p.Query(2, 3); err == nil {
		t.Fatal("query over empty epochs succeeded")
	}
}

// The cover cache serves repeated covers and invalidates live ranges
// on mutation, mirroring the PULL snapshot cache.
func TestPlaneQueryCache(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 4, Levels: 2})
	sealExampleEpochs(t, p, ent, []int{100, 200, 300})
	p.Quiesce()

	f1, err := p.QueryEncoded(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.QueryEncoded(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if &f1[0] != &f2[0] {
		t.Fatal("repeated sealed cover was not served from the cache")
	}
	st := p.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}

	// Live ranges: cached until a mutation bumps the version.
	l1, err := p.QueryEncoded(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := p.QueryEncoded(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &l1[0] != &l2[0] {
		t.Fatal("repeated live cover was not served from the cache")
	}
	if _, err := p.Absorb(ent.Example(5)); err != nil {
		t.Fatal(err)
	}
	l3, err := p.QueryEncoded(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &l1[0] == &l3[0] {
		t.Fatal("live cover served stale after Absorb")
	}
	got, err := ent.Decode(l3)
	if err != nil {
		t.Fatal(err)
	}
	want := exampleN(ent, 100) + exampleN(ent, 200) + exampleN(ent, 300) + exampleN(ent, 5)
	if n := ent.N(got); n != want {
		t.Fatalf("post-absorb live N = %d, want %d", n, want)
	}
}

// Ranges older than every retained resolution fail with a useful
// error instead of silently under-counting.
func TestPlaneEvictionErrors(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 2, Levels: 2, Horizon: []uint64{4, 16}})
	weights := make([]int, 32)
	for i := range weights {
		weights[i] = 1
	}
	sealExampleEpochs(t, p, ent, weights)
	p.Quiesce()

	// Epoch 1 is far outside both horizons.
	if _, err := p.Query(1, 2); err == nil {
		t.Fatal("query over evicted epochs succeeded")
	}
	// A recent range still answers.
	v, err := p.Query(30, 32)
	if err != nil {
		t.Fatal(err)
	}
	if n := ent.N(v); n != 3 {
		t.Fatalf("N = %d, want 3", n)
	}
	// An old but coarse-aligned range within the level-1 horizon
	// answers at level-1 resolution.
	cov, err := p.Cover(21, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range cov.Segments {
		if seg.Level != 1 {
			t.Fatalf("aged cover uses level-%d segment [%d,%d], want level 1", seg.Level, seg.From, seg.To)
		}
	}
}

// Background roll-ups racing Absorb/Advance/Query: run with -race.
// Queries may fail (ranges evict under the racing advances); they must
// never return a wrong weight for the range they claim.
func TestPlaneConcurrentRollups(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 4, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}})
	const epochs = 200
	w10 := exampleN(ent, 10)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for e := 0; e < epochs; e++ {
			if _, err := p.Absorb(ent.Example(10)); err != nil {
				t.Error(err)
				return
			}
			if err := p.Advance(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			sealed := p.Epoch() - 1
			if sealed < 1 {
				continue
			}
			from := sealed/2 + 1
			v, err := p.Query(from, sealed)
			if err != nil {
				continue // racing advance/rollup; acceptable
			}
			if n, want := ent.N(v), (sealed-from+1)*w10; n != want {
				t.Errorf("query [%d,%d]: N = %d, want %d", from, sealed, n, want)
				return
			}
		}
	}()
	wg.Wait()
	p.Quiesce()
	st := p.Stats()
	if st.RollupErrs != 0 {
		t.Fatalf("rollup errors: %+v (last: %v)", st, p.lastErr)
	}
	v, err := p.Query(1, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), epochs*w10; n != want {
		t.Fatalf("full-range N = %d, want %d", n, want)
	}
}

// The memoized sealed tail makes repeated Windowed queries cheap: no
// re-merge of sealed epochs while the epoch stands, and updates to the
// live epoch are still observed immediately.
func TestWindowedQueryMemoization(t *testing.T) {
	clones, merges := 0, 0
	clone := func(s *mg.Summary) *mg.Summary { clones++; return s.Clone() }
	merge := func(dst, src *mg.Summary) error { merges++; return dst.Merge(src) }

	w := New(8, newMG)
	for e := 0; e < 5; e++ {
		w.Current().Update(1, 10)
		if e < 4 {
			w.Advance()
		}
	}
	q1, err := w.Query(5, clone, merge)
	if err != nil {
		t.Fatal(err)
	}
	if q1.N() != 50 {
		t.Fatalf("N = %d, want 50", q1.N())
	}
	c1, m1 := clones, merges

	// Same window, no advance: one clone of the tail + one live merge.
	q2, err := w.Query(5, clone, merge)
	if err != nil {
		t.Fatal(err)
	}
	if q2.N() != 50 {
		t.Fatalf("repeat N = %d, want 50", q2.N())
	}
	if clones-c1 != 1 || merges-m1 != 1 {
		t.Fatalf("repeat query cost %d clones %d merges, want 1 and 1", clones-c1, merges-m1)
	}

	// Updates to the live epoch are never hidden by the memo.
	w.Current().Update(2, 7)
	q3, err := w.Query(5, clone, merge)
	if err != nil {
		t.Fatal(err)
	}
	if q3.N() != 57 {
		t.Fatalf("post-update N = %d, want 57", q3.N())
	}

	// Advancing invalidates the tail and recycles it.
	recycled := 0
	w.SetRecycler(func(*mg.Summary) { recycled++ })
	w.Advance()
	if _, err := w.Query(5, clone, merge); err != nil {
		t.Fatal(err)
	}
	if recycled != 1 {
		t.Fatalf("recycled %d tails after advance, want 1", recycled)
	}
}

// Changing the window length rebuilds the tail for the new length.
func TestWindowedQueryMemoPerLength(t *testing.T) {
	w := New(8, newMG)
	for e := 0; e < 6; e++ {
		w.Current().Update(1, 1)
		if e < 5 {
			w.Advance()
		}
	}
	for _, last := range []int{1, 3, 6, 3, 1} {
		q, err := w.Query(last, cloneMG, (*mg.Summary).Merge)
		if err != nil {
			t.Fatal(err)
		}
		if q.N() != uint64(last) {
			t.Fatalf("last=%d: N = %d", last, q.N())
		}
	}
}

func BenchmarkWindowedQueryMemoized(b *testing.B) {
	w := New(64, newMG)
	for e := 0; e < 64; e++ {
		for i := 0; i < 100; i++ {
			w.Current().Update(core.Item(i), 1)
		}
		if e < 63 {
			w.Advance()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query(64, cloneMG, (*mg.Summary).Merge); err != nil {
			b.Fatal(err)
		}
	}
}
