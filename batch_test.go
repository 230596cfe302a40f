// Batch-vs-loop equivalence: for every summary family, UpdateBatch
// over a stream must produce a state identical to (or, where batching
// legitimately defers work, guarantee-equivalent to) looping Update.
package mergesum_test

import (
	"fmt"
	"reflect"
	"testing"

	mergesum "repro"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/shard"
)

const batchStreamLen = 20000

func batchItemStream() []mergesum.Item {
	return gen.NewZipf(batchStreamLen/8, 1.1, 99).Stream(batchStreamLen)
}

func batchValueStream() []float64 {
	return gen.UniformValues(batchStreamLen, 99)
}

// weightedStream pairs the item stream with cycling weights 1..7.
func weightedStream() []mergesum.Counter {
	xs := batchItemStream()
	out := make([]mergesum.Counter, len(xs))
	for i, x := range xs {
		out[i] = mergesum.Counter{Item: x, Count: uint64(i%7) + 1}
	}
	return out
}

// chunks splits n into uneven chunk lengths so batch boundaries fall
// at irregular offsets (1, then growing, then whatever remains).
func chunks(n int) []int {
	var out []int
	for size, done := 1, 0; done < n; size = size*2 + 1 {
		if size > n-done {
			size = n - done
		}
		out = append(out, size)
		done += size
	}
	return out
}

// qdFP captures what the q-digest guarantee speaks about.
type qdFP struct {
	n, bound uint64
	ranks    []uint64 // Rank of each of qdQueries
}

var qdQueries = []uint64{10, 100, 1000, 60000}

func TestBatchEquivalence(t *testing.T) {
	type variant struct {
		name string
		// loop feeds every element one Update at a time; batch feeds
		// the same stream through UpdateBatch in uneven chunks. Both
		// return a comparable fingerprint of the final state.
		loop  func() any
		batch func() any
		// guarantee, when set, replaces fingerprint equality: it
		// receives both fingerprints and fails t on a violated bound.
		guarantee func(t *testing.T, loopFP, batchFP any)
	}

	items := batchItemStream()
	weighted := weightedStream()
	vals := batchValueStream()

	// Exact frequencies for the guarantee-equivalence checks.
	freq := exact.NewFreqTable()
	for _, x := range items {
		freq.Add(x, 1)
	}
	wfreq := exact.NewFreqTable()
	for _, c := range weighted {
		wfreq.Add(c.Item, c.Count)
	}

	// mgFingerprint captures everything the MG guarantee speaks about.
	type mgFP struct {
		n, dec uint64
		len, k int
		est    map[mergesum.Item]uint64
	}
	mgFinger := func(s *mergesum.MisraGries) any {
		est := make(map[mergesum.Item]uint64)
		for _, c := range s.Counters() {
			est[c.Item] = c.Count
		}
		return mgFP{n: s.N(), dec: s.ErrorBound(), len: s.Len(), k: s.K(), est: est}
	}
	mgGuarantee := func(truth *exact.FreqTable) func(t *testing.T, _, fp any) {
		return func(t *testing.T, _, fpAny any) {
			fp := fpAny.(mgFP)
			if fp.n != truth.N() {
				t.Fatalf("batch n=%d, want %d", fp.n, truth.N())
			}
			if fp.len > fp.k {
				t.Fatalf("batch holds %d counters, k=%d", fp.len, fp.k)
			}
			if bound := mergesum.MGBound(fp.n, fp.k); fp.dec > bound {
				t.Fatalf("batch dec=%d exceeds n/(k+1)=%d", fp.dec, bound)
			}
			for _, c := range truth.Counters() {
				est := fp.est[c.Item]
				if est > c.Count {
					t.Fatalf("item %d: estimate %d overestimates true %d", c.Item, est, c.Count)
				}
				if est+fp.dec < c.Count {
					t.Fatalf("item %d: estimate %d + dec %d undercounts true %d", c.Item, est, fp.dec, c.Count)
				}
			}
		}
	}

	feedItems := func(feed func(s any, chunk []mergesum.Item), s any) {
		done := 0
		for _, c := range chunks(len(items)) {
			feed(s, items[done:done+c])
			done += c
		}
	}
	feedWeighted := func(feed func(s any, chunk []mergesum.Counter), s any) {
		done := 0
		for _, c := range chunks(len(weighted)) {
			feed(s, weighted[done:done+c])
			done += c
		}
	}
	feedVals := func(feed func(s any, chunk []float64), s any) {
		done := 0
		for _, c := range chunks(len(vals)) {
			feed(s, vals[done:done+c])
			done += c
		}
	}

	qdFinger := func(s *mergesum.QDigest) any {
		fp := qdFP{n: s.N(), bound: s.ErrorBound()}
		for _, q := range qdQueries {
			fp.ranks = append(fp.ranks, s.Rank(q))
		}
		return fp
	}
	ssFinger := func(s *mergesum.SpaceSaving) any {
		return fmt.Sprintf("n=%d under=%d states=%v", s.N(), s.UnderBound(), s.States())
	}
	cmFinger := func(s *mergesum.CountMin) any {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	csFinger := func(s *mergesum.CountSketch) any {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	quantFinger := func(s interface {
		N() uint64
		Rank(float64) uint64
	}) any {
		ranks := make([]uint64, 0, 9)
		for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			ranks = append(ranks, s.Rank(phi))
		}
		return fmt.Sprintf("n=%d ranks=%v", s.N(), ranks)
	}

	// gk flushes at the same points either way, so the two must agree
	// to the byte: ranks, and the frame of the tuple list itself.
	gkFinger := func(s *mergesum.GK) any {
		fp := quantFinger(s)
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v frame=%x", fp, data)
	}

	variants := []variant{
		{
			name: "mg/unit",
			loop: func() any {
				s := mergesum.NewMisraGries(64)
				for _, x := range items {
					s.Update(x, 1)
				}
				return mgFinger(s)
			},
			batch: func() any {
				s := mergesum.NewMisraGries(64)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.MisraGries).UpdateBatch(c) }, s)
				return mgFinger(s)
			},
			guarantee: mgGuarantee(freq),
		},
		{
			name: "mg/weighted",
			loop: func() any {
				s := mergesum.NewMisraGries(64)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return mgFinger(s)
			},
			batch: func() any {
				s := mergesum.NewMisraGries(64)
				feedWeighted(func(s2 any, c []mergesum.Counter) { s2.(*mergesum.MisraGries).UpdateBatchWeighted(c) }, s)
				return mgFinger(s)
			},
			guarantee: mgGuarantee(wfreq),
		},
		{
			name: "spacesaving/unit",
			loop: func() any {
				s := mergesum.NewSpaceSaving(64)
				for _, x := range items {
					s.Update(x, 1)
				}
				return ssFinger(s)
			},
			batch: func() any {
				s := mergesum.NewSpaceSaving(64)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.SpaceSaving).UpdateBatch(c) }, s)
				return ssFinger(s)
			},
		},
		{
			name: "spacesaving/weighted",
			loop: func() any {
				s := mergesum.NewSpaceSaving(64)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return ssFinger(s)
			},
			batch: func() any {
				s := mergesum.NewSpaceSaving(64)
				feedWeighted(func(s2 any, c []mergesum.Counter) { s2.(*mergesum.SpaceSaving).UpdateBatchWeighted(c) }, s)
				return ssFinger(s)
			},
		},
		{
			name: "countmin/unit",
			loop: func() any {
				s := mergesum.NewCountMin(512, 4, 7)
				for _, x := range items {
					s.Update(x, 1)
				}
				return cmFinger(s)
			},
			batch: func() any {
				s := mergesum.NewCountMin(512, 4, 7)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.CountMin).UpdateBatch(c) }, s)
				return cmFinger(s)
			},
		},
		{
			name: "countmin/weighted",
			loop: func() any {
				s := mergesum.NewCountMin(512, 4, 7)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return cmFinger(s)
			},
			batch: func() any {
				s := mergesum.NewCountMin(512, 4, 7)
				feedWeighted(func(s2 any, c []mergesum.Counter) { s2.(*mergesum.CountMin).UpdateBatchWeighted(c) }, s)
				return cmFinger(s)
			},
		},
		{
			name: "countmin/conservative",
			loop: func() any {
				s := mergesum.NewCountMin(512, 4, 7)
				s.SetConservative(true)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return cmFinger(s)
			},
			batch: func() any {
				s := mergesum.NewCountMin(512, 4, 7)
				s.SetConservative(true)
				feedWeighted(func(s2 any, c []mergesum.Counter) { s2.(*mergesum.CountMin).UpdateBatchWeighted(c) }, s)
				return cmFinger(s)
			},
		},
		{
			name: "countsketch/unit",
			loop: func() any {
				s := mergesum.NewCountSketch(512, 5, 7)
				for _, x := range items {
					s.Update(x, 1)
				}
				return csFinger(s)
			},
			batch: func() any {
				s := mergesum.NewCountSketch(512, 5, 7)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.CountSketch).UpdateBatch(c) }, s)
				return csFinger(s)
			},
		},
		{
			name: "countsketch/weighted",
			loop: func() any {
				s := mergesum.NewCountSketch(512, 5, 7)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return csFinger(s)
			},
			batch: func() any {
				s := mergesum.NewCountSketch(512, 5, 7)
				feedWeighted(func(s2 any, c []mergesum.Counter) { s2.(*mergesum.CountSketch).UpdateBatchWeighted(c) }, s)
				return csFinger(s)
			},
		},
		{
			name: "kmv",
			loop: func() any {
				s := mergesum.NewKMV(256, 7)
				for _, x := range items {
					s.Update(x)
				}
				return fmt.Sprintf("n=%d hashes=%v", s.N(), s.Hashes())
			},
			batch: func() any {
				s := mergesum.NewKMV(256, 7)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.KMV).UpdateBatch(c) }, s)
				return fmt.Sprintf("n=%d hashes=%v", s.N(), s.Hashes())
			},
		},
		{
			name: "hll",
			loop: func() any {
				s := mergesum.NewHLL(12, 7)
				for _, x := range items {
					s.Update(x)
				}
				data, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			},
			batch: func() any {
				s := mergesum.NewHLL(12, 7)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.HLL).UpdateBatch(c) }, s)
				data, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			},
		},
		{
			name: "gk",
			loop: func() any {
				s := mergesum.NewGK(0.01)
				for _, v := range vals {
					s.Update(v)
				}
				return gkFinger(s)
			},
			batch: func() any {
				s := mergesum.NewGK(0.01)
				feedVals(func(s2 any, c []float64) { s2.(*mergesum.GK).UpdateBatch(c) }, s)
				return gkFinger(s)
			},
		},
		{
			name: "randquant",
			loop: func() any {
				s := mergesum.NewQuantile(0.02, 7)
				for _, v := range vals {
					s.Update(v)
				}
				return quantFinger(s)
			},
			batch: func() any {
				s := mergesum.NewQuantile(0.02, 7)
				feedVals(func(s2 any, c []float64) { s2.(*mergesum.Quantile).UpdateBatch(c) }, s)
				return quantFinger(s)
			},
		},
		{
			name: "randquant/hybrid",
			loop: func() any {
				s := mergesum.NewQuantileHybrid(0.02, 7)
				for _, v := range vals {
					s.Update(v)
				}
				return quantFinger(s)
			},
			batch: func() any {
				s := mergesum.NewQuantileHybrid(0.02, 7)
				feedVals(func(s2 any, c []float64) { s2.(*mergesum.Quantile).UpdateBatch(c) }, s)
				return quantFinger(s)
			},
		},
		{
			// Guarantee-equivalent, like mg: a batch is ingested as sorted
			// runs with the compressions between them, so the node set
			// differs from the loop's; N, the error bound and the rank
			// guarantee against the exact oracle do not.
			name: "qdigest",
			loop: func() any {
				s := mergesum.NewQDigest(16, 0.01)
				for _, x := range items {
					s.Update(uint64(x), 1)
				}
				return qdFinger(s)
			},
			batch: func() any {
				s := mergesum.NewQDigest(16, 0.01)
				done := 0
				for _, c := range chunks(len(items)) {
					chunk := make([]uint64, c)
					for i, x := range items[done : done+c] {
						chunk[i] = uint64(x)
					}
					s.UpdateBatch(chunk)
					done += c
				}
				return qdFinger(s)
			},
			guarantee: func(t *testing.T, loopFP, batchFP any) {
				itemVals := make([]float64, len(items))
				for i, x := range items {
					itemVals[i] = float64(x)
				}
				truth := exact.QuantilesOf(itemVals)
				for name, fp := range map[string]qdFP{"loop": loopFP.(qdFP), "batch": batchFP.(qdFP)} {
					if fp.n != truth.N() || fp.bound != loopFP.(qdFP).bound {
						t.Fatalf("%s: n=%d bound=%d, want n=%d and the loop's bound %d", name, fp.n, fp.bound, truth.N(), loopFP.(qdFP).bound)
					}
					for i, q := range qdQueries {
						want := truth.Rank(float64(q))
						if got := fp.ranks[i]; got > want || want-got > fp.bound {
							t.Fatalf("%s: Rank(%d) = %d, exact %d, bound %d", name, q, got, want, fp.bound)
						}
					}
				}
			},
		},
		{
			name: "topk",
			loop: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				for _, x := range items {
					s.Update(x, 1)
				}
				return fmt.Sprintf("n=%d top=%v", s.N(), s.Top())
			},
			batch: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.TopK).UpdateBatch(c) }, s)
				return fmt.Sprintf("n=%d top=%v", s.N(), s.Top())
			},
		},
		{
			name: "topk/weighted",
			loop: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return fmt.Sprintf("n=%d top=%v", s.N(), s.Top())
			},
			batch: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				feedWeighted(func(s2 any, c []mergesum.Counter) { s2.(*mergesum.TopK).UpdateBatchWeighted(c) }, s)
				return fmt.Sprintf("n=%d top=%v", s.N(), s.Top())
			},
		},
		{
			name: "bottomk",
			loop: func() any {
				s := mergesum.NewBottomK(512, 7)
				for _, v := range vals {
					s.Update(v)
				}
				return fmt.Sprintf("n=%d vals=%v", s.N(), s.Values())
			},
			batch: func() any {
				s := mergesum.NewBottomK(512, 7)
				feedVals(func(s2 any, c []float64) { s2.(*mergesum.BottomK).UpdateBatch(c) }, s)
				return fmt.Sprintf("n=%d vals=%v", s.N(), s.Values())
			},
		},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			loopFP := v.loop()
			batchFP := v.batch()
			if v.guarantee != nil {
				v.guarantee(t, loopFP, batchFP)
				return
			}
			if !reflect.DeepEqual(loopFP, batchFP) {
				t.Fatalf("batch state differs from loop state:\nloop:  %v\nbatch: %v", loopFP, batchFP)
			}
		})
	}
}

// TestUpdateBatchAllocs pins the allocation behaviour of every batch
// ingest path: once a summary has seen the stream (tables sized, scratch
// grown), an UpdateBatch call allocates nothing. gk flushes into a
// retained run, which may still have to grow now and then: at most one
// allocation per call. The two randomized quantile summaries allocate
// a block per buffer promotion and grow their storage with n, so for
// them the bound is amortised: fewer allocations than items.
func TestUpdateBatchAllocs(t *testing.T) {
	const batchLen = 1024
	items := batchItemStream()
	vals := batchValueStream()

	onItems := func(up func([]mergesum.Item)) func(off int) {
		return func(off int) { up(items[off : off+batchLen]) }
	}
	onVals := func(up func([]float64)) func(off int) {
		return func(off int) { up(vals[off : off+batchLen]) }
	}
	uvals := make([]uint64, len(items))
	for i, x := range items {
		uvals[i] = uint64(x) * 7919 % (1 << 16) // spread over the q-digest's universe
	}
	onUvals := func(up func([]uint64)) func(off int) {
		return func(off int) { up(uvals[off : off+batchLen]) }
	}
	// One value ahead of the batches, so that N is never a multiple of
	// 1024 when a batch ends: that is where a sanitize build samples its
	// assertion, which clones the digest.
	qd := mergesum.NewQDigest(16, 0.01)
	qd.Update(0, 1)

	for _, tc := range []struct {
		name  string
		batch func(off int) // one UpdateBatch call over [off, off+batchLen)
		max   float64       // allowed allocations per call
	}{
		{"mg/k=64", onItems(mergesum.NewMisraGries(64).UpdateBatch), 0},
		{"mg/k=1024", onItems(mergesum.NewMisraGries(1024).UpdateBatch), 0},
		{"spacesaving/k=256", onItems(mergesum.NewSpaceSaving(256).UpdateBatch), 0},
		{"countmin/w=1024,d=4", onItems(mergesum.NewCountMin(1024, 4, 1).UpdateBatch), 0},
		{"countsketch/w=1024,d=4", onItems(mergesum.NewCountSketch(1024, 4, 1).UpdateBatch), 0},
		{"kmv/k=1024", onItems(mergesum.NewKMV(1024, 1).UpdateBatch), 0},
		{"hll/p=12", onItems(mergesum.NewHLL(12, 1).UpdateBatch), 0},
		{"topk/k=64", onItems(mergesum.NewTopK(64, 512, 4, 1).UpdateBatch), 0},
		{"bottomk/k=4096", onVals(mergesum.NewBottomK(4096, 1).UpdateBatch), 0},
		{"qdigest/logU=16", onUvals(qd.UpdateBatch), 0}, // sort runs, body and compress scratch retained
		{"gk/eps=0.01", onVals(mergesum.NewGK(0.01).UpdateBatch), 1},
		{"randquant/eps=0.01", onVals(mergesum.NewQuantile(0.01, 1).UpdateBatch), batchLen - 1},
		{"hybrid/eps=0.01", onVals(mergesum.NewQuantileHybrid(0.01, 1).UpdateBatch), 0}, // the one type's free list
	} {
		t.Run(tc.name, func(t *testing.T) {
			last := batchStreamLen - batchLen
			for off := 0; off <= last; off += batchLen {
				tc.batch(off)
			}
			off := 0
			got := testing.AllocsPerRun(50, func() {
				tc.batch(off)
				off = (off + 613) % last
			})
			if got > tc.max {
				t.Fatalf("UpdateBatch of %d items: %.1f allocs per call, want <= %.0f", batchLen, got, tc.max)
			}
		})
	}
}

// TestWarmPromoteAllocs pins the block promotion of the three families
// that buffer and sort — the quantile summary, the range counter, GK —
// at zero allocations once warm: the sort scratch lives on the summary
// and block storage comes off its free list. Each summary is first fed
// 16 blocks (one level-4 block stored, the rest of its storage free),
// then measured over calls of one block each: block counts 17–24, which
// never hold more blocks at once than the warm-up did.
func TestWarmPromoteAllocs(t *testing.T) {
	vals := batchValueStream()
	pts := gen.UniformPoints(batchStreamLen, 99)
	box := mergesum.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}

	q := mergesum.NewQuantile(0.05, 1)
	rc := mergesum.NewRangeCounter(0.2, box, 1)
	g := mergesum.NewGK(0.01)
	const gkBlock = 64 // above GK's pending-insert buffer at eps=0.01: a flush per call
	for _, tc := range []struct {
		name  string
		block int
		feed  func(lo, hi int)
	}{
		{"quantile", q.BlockSize(), func(lo, hi int) { q.UpdateBatch(vals[lo:hi]) }},
		{"rangecount", rc.BlockSize(), func(lo, hi int) {
			for _, p := range pts[lo:hi] {
				rc.Update(p)
			}
		}},
		{"gk", gkBlock, func(lo, hi int) { g.UpdateBatch(vals[lo:hi]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.feed(0, 16*tc.block)
			at := 16 * tc.block
			if got := testing.AllocsPerRun(7, func() {
				tc.feed(at, at+tc.block)
				at += tc.block
			}); got != 0 {
				t.Fatalf("promoting a block of %d on a warm summary: %.1f allocs per block, want 0", tc.block, got)
			}
		})
	}
}

// TestShardedUpdateBatch checks that batched sharded ingestion merges
// to the same totals as per-item sharded ingestion, and that the
// pooled partition buffers route every index exactly once.
func TestShardedUpdateBatch(t *testing.T) {
	items := batchItemStream()

	mkSharded := func() *shard.Sharded[*mergesum.MisraGries] {
		return shard.New(8, func(int) *mergesum.MisraGries { return mergesum.NewMisraGries(64) })
	}

	perItem := mkSharded()
	for _, x := range items {
		perItem.Update(uint64(x), func(s *mergesum.MisraGries) { s.Update(x, 1) })
	}

	batched := mkSharded()
	done := 0
	for _, c := range chunks(len(items)) {
		chunk := items[done : done+c]
		batched.UpdateBatch(len(chunk),
			func(i int) uint64 { return uint64(chunk[i]) },
			func(s *mergesum.MisraGries, idxs []int) {
				for _, i := range idxs {
					s.Update(chunk[i], 1)
				}
			})
		done += c
	}

	clone := func(s *mergesum.MisraGries) *mergesum.MisraGries { return s.Clone() }
	merge := func(dst, src *mergesum.MisraGries) error { return dst.Merge(src) }
	a, err := perItem.Snapshot(clone, merge)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.Snapshot(clone, merge)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.N() != uint64(len(items)) {
		t.Fatalf("per-item N=%d batched N=%d, want %d", a.N(), b.N(), len(items))
	}
	// Same routing => per-shard summaries saw identical substreams.
	if got, want := fmt.Sprint(b.Counters()), fmt.Sprint(a.Counters()); got != want {
		t.Fatalf("batched merge differs:\nper-item: %s\nbatched:  %s", want, got)
	}
}
