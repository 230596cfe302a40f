package window

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// mustPlane builds a plane over the named registry family.
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

// The roll-up invariant: the moment Advance returns, every fan-aligned
// completed block is sealed at every level, each epoch counted exactly
// once per level — so a cover of [1, 64] is one level-2 segment, not 64, and a
// long window costs one piece per top-level span, not one per epoch.
func TestPlaneRollupLadder(t *testing.T) {
	p, ent := mustPlane(t, "mg", Ladder{Fan: 8, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}})
	weights := make([]int, 1024)
	for i := range weights {
		weights[i] = i%16 + 1 // any non-empty epoch seals a segment
	}
	sealExampleEpochs(t, p, ent, weights)

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

// Absorb, Advance and Query racing each other: run with -race. Two
// absorbers and one sealer share the plane with the reading test; which epoch an
// absorb lands in is up to the scheduler, so the oracle takes each
// epoch's frame from the plane itself ([e, e] is one level-0 piece,
// returned as stored) and every sealed-range answer the reader gets
// must be the canonical nested fold of those frames — whatever the
// sealer was doing at the time.
func TestPlaneConcurrentRollups(t *testing.T) {
	l := Ladder{Fan: 4, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}}
	p, ent := mustPlane(t, "mg", l)
	const epochs, perAbsorber = 200, 300
	w10 := exampleN(ent, 10)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perAbsorber; k++ {
				if _, err := p.Absorb(ent.Example(10)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := 0; e < epochs; e++ {
			if err := p.Advance(); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	// The reader is the test's own goroutine, so the oracle may t.Fatal.
	want := newCanon(t, ent, l, func(e uint64) []byte {
		f, err := p.QueryEncoded(e, e)
		if err != nil && !errors.Is(err, ErrNoData) {
			t.Fatal(err)
		}
		return f
	})
	for i := 0; i < 500; i++ {
		sealed := p.Epoch() - 1
		if sealed < 1 {
			continue
		}
		from := sealed/2 + 1
		if k := uint64(i % 3); from > k {
			from -= k
		}
		got, err := p.QueryEncoded(from, sealed)
		if err != nil && !errors.Is(err, ErrNoData) {
			t.Fatalf("query [%d,%d]: %v", from, sealed, err)
		}
		if w := want.answer(from, sealed); !bytes.Equal(got, w) {
			t.Fatalf("query [%d,%d]: %d bytes, canonical fold has %d", from, sealed, len(got), len(w))
		}
	}
	wg.Wait()
	if st := p.Stats(); st.Epoch != epochs+1 {
		t.Fatalf("epoch = %d, want %d", st.Epoch, epochs+1)
	}
	v, err := p.Query(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), 2*perAbsorber*w10; n != want {
		t.Fatalf("full-range N = %d, want %d", n, want)
	}
}
