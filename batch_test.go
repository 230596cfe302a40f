// Batch-vs-loop equivalence: for every summary family, UpdateBatch
// over a stream must produce a state identical to (or, where batching
// legitimately defers work, guarantee-equivalent to) looping Update.
package mergesum_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	mergesum "repro"
	"repro/internal/codec"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/spacesaving"
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

// unitStream expands a weighted stream into unit items, each record's
// item repeated Count times: the stream a batch sees of it.
func unitStream(ws []mergesum.Counter) []mergesum.Item {
	var out []mergesum.Item
	for _, c := range ws {
		for range c.Count {
			out = append(out, c.Item)
		}
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

// nestedSketch returns the Count-Min frame a top-k frame carries.
func nestedSketch(t *testing.T, s *mergesum.TopK) []byte {
	t.Helper()
	frame, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.DecodeFrame(codec.KindTopK, frame)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(payload)
	r.Int() // k
	inner := make([]byte, r.ArrayLen(1))
	r.Uint8s(inner, 255)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return inner
}

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
	units := unitStream(weighted) // the weighted rows batch this, and loop Update(x, w)
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
	feedUnits := func(feed func(s any, chunk []mergesum.Item), s any) {
		done := 0
		for _, c := range chunks(len(units)) {
			feed(s, units[done:done+c])
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
	// ssFP captures what the SpaceSaving guarantee speaks about.
	type ssFP struct {
		n, under uint64
		k        int
		states   []spacesaving.CounterState
	}
	ssFinger := func(s *mergesum.SpaceSaving) any {
		return ssFP{n: s.N(), under: s.UnderBound(), k: s.K(), states: s.States()}
	}
	// The batch collapses each run into weighted updates, lightest first:
	// guarantee-equivalent to the loop. Same N and UnderBound, at most k
	// counters, no item undercounted (monitored: f ≤ count + under;
	// unmonitored: f ≤ min + under), count − eps ≤ f for every counter,
	// and the counts sum to N once k items are monitored, so min ≤ N/k.
	ssGuarantee := func(truth *exact.FreqTable) func(t *testing.T, loopFP, batchFP any) {
		return func(t *testing.T, loopAny, fpAny any) {
			loop, fp := loopAny.(ssFP), fpAny.(ssFP)
			if fp.n != truth.N() || fp.n != loop.n || fp.under != loop.under {
				t.Fatalf("batch n=%d under=%d, loop n=%d under=%d, truth n=%d", fp.n, fp.under, loop.n, loop.under, truth.N())
			}
			if len(fp.states) > fp.k {
				t.Fatalf("batch holds %d counters, k=%d", len(fp.states), fp.k)
			}
			var sum, least uint64
			held := make(map[mergesum.Item]spacesaving.CounterState)
			for i, st := range fp.states {
				held[st.Item] = st
				sum += st.Count
				if i == 0 {
					least = st.Count
				}
			}
			if len(fp.states) == fp.k && (sum != fp.n || least > mergesum.SSBound(fp.n, fp.k)) {
				t.Fatalf("full batch summary: counts sum to %d (n=%d), min %d (n/k=%d)", sum, fp.n, least, mergesum.SSBound(fp.n, fp.k))
			}
			for _, c := range truth.Counters() {
				st, ok := held[c.Item]
				switch {
				case ok && st.Count+fp.under < c.Count:
					t.Fatalf("item %d: count %d + under %d undercounts true %d", c.Item, st.Count, fp.under, c.Count)
				case ok && st.Count-st.Eps > c.Count:
					t.Fatalf("item %d: count %d − eps %d exceeds true %d", c.Item, st.Count, st.Eps, c.Count)
				case !ok && least+fp.under < c.Count:
					t.Fatalf("unmonitored item %d: min %d + under %d undercounts true %d", c.Item, least, fp.under, c.Count)
				}
			}
			for x := range held {
				if truth.Count(x) == 0 {
					t.Fatalf("batch monitors item %d, which never occurred", x)
				}
			}
		}
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
	// topkFP: N, the nested Count-Min frame (the sketch's cells), every
	// stream item's final estimate, and the directory.
	type topkFP struct {
		n      uint64
		sketch []byte
		est    map[mergesum.Item]uint64
		top    []mergesum.Counter
	}
	topkFinger := func(s *mergesum.TopK) any {
		fp := topkFP{n: s.N(), sketch: nestedSketch(t, s), est: make(map[mergesum.Item]uint64), top: s.Top()}
		for _, c := range freq.Counters() {
			fp.est[c.Item] = s.Estimate(c.Item).Value
		}
		return fp
	}
	// The batch updates the sketch linearly, so its cells are the loop's
	// byte for byte; the directory is re-ranked against the final
	// sketch, so it holds the top k of (loop directory ∪ distinct inputs)
	// by final estimate — ties either way — each entry carrying that
	// estimate.
	topkGuarantee := func(t *testing.T, loopAny, fpAny any) {
		loop, fp := loopAny.(topkFP), fpAny.(topkFP)
		if fp.n != loop.n || !bytes.Equal(fp.sketch, loop.sketch) {
			t.Fatalf("batch n=%d, loop n=%d, or the sketch cells differ", fp.n, loop.n)
		}
		for _, c := range loop.top {
			if _, ok := fp.est[c.Item]; !ok {
				t.Fatalf("loop directory item %d is not an input", c.Item)
			}
		}
		var all []uint64
		for _, e := range fp.est {
			all = append(all, e)
		}
		slices.Sort(all)
		slices.Reverse(all)
		want := all[:min(len(all), 32)]
		var got []uint64
		for _, c := range fp.top {
			if fp.est[c.Item] != c.Count {
				t.Fatalf("directory item %d carries %d, final estimate %d", c.Item, c.Count, fp.est[c.Item])
			}
			got = append(got, c.Count)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("batch directory estimates %v, want the top %d of the inputs' %v", got, len(want), want)
		}
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
				feedUnits(func(s2 any, c []mergesum.Item) { s2.(*mergesum.MisraGries).UpdateBatch(c) }, s)
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
			guarantee: ssGuarantee(freq),
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
				feedUnits(func(s2 any, c []mergesum.Item) { s2.(*mergesum.SpaceSaving).UpdateBatch(c) }, s)
				return ssFinger(s)
			},
			guarantee: ssGuarantee(wfreq),
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
				feedUnits(func(s2 any, c []mergesum.Item) { s2.(*mergesum.CountMin).UpdateBatch(c) }, s)
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
				feedUnits(func(s2 any, c []mergesum.Item) { s2.(*mergesum.CountSketch).UpdateBatch(c) }, s)
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
				return topkFinger(s)
			},
			batch: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				feedItems(func(s2 any, c []mergesum.Item) { s2.(*mergesum.TopK).UpdateBatch(c) }, s)
				return topkFinger(s)
			},
			guarantee: topkGuarantee,
		},
		{
			name: "topk/weighted",
			loop: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				for _, c := range weighted {
					s.Update(c.Item, c.Count)
				}
				return topkFinger(s)
			},
			batch: func() any {
				s := mergesum.NewTopK(32, 512, 4, 7)
				feedUnits(func(s2 any, c []mergesum.Item) { s2.(*mergesum.TopK).UpdateBatch(c) }, s)
				return topkFinger(s)
			},
			guarantee: topkGuarantee,
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
// them the bound is amortised: fewer allocations than items. The
// weighted and per-item rows hold 1024 Update calls to the same zero.
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
	// The weighted rows pin the weighted ingest path, a loop of
	// Update(x, w), over the same windows of the stream.
	onWeighted := func(up func(mergesum.Item, uint64)) func(off int) {
		return func(off int) {
			for i, x := range items[off : off+batchLen] {
				up(x, uint64((off+i)%7+1))
			}
		}
	}
	// One value ahead of the batches, so that N is never a multiple of
	// 1024 when a batch ends: that is where a sanitize build samples its
	// assertion, which clones the digest.
	qd, qdw, qdu := mergesum.NewQDigest(16, 0.01), mergesum.NewQDigest(16, 0.01), mergesum.NewQDigest(16, 0.01)
	qd.Update(0, 1)
	qdw.Update(0, 1)
	qdu.Update(0, 1)

	for _, tc := range []struct {
		name  string
		batch func(off int) // one UpdateBatch call over [off, off+batchLen)
		max   float64       // allowed allocations per call
	}{
		{"mg/k=64", onItems(mergesum.NewMisraGries(64).UpdateBatch), 0},
		{"mg/k=1024", onItems(mergesum.NewMisraGries(1024).UpdateBatch), 0},
		{"spacesaving/k=256", onItems(mergesum.NewSpaceSaving(256).UpdateBatch), 0}, // pooled collapse
		{"countmin/w=1024,d=4", onItems(mergesum.NewCountMin(1024, 4, 1).UpdateBatch), 0},
		{"countsketch/w=1024,d=4", onItems(mergesum.NewCountSketch(1024, 4, 1).UpdateBatch), 0},
		{"kmv/k=1024", onItems(mergesum.NewKMV(1024, 1).UpdateBatch), 0},
		{"hll/p=12", onItems(mergesum.NewHLL(12, 1).UpdateBatch), 0},
		{"topk/k=64", onItems(mergesum.NewTopK(64, 512, 4, 1).UpdateBatch), 0}, // pooled collapse
		{"bottomk/k=4096", onVals(mergesum.NewBottomK(4096, 1).UpdateBatch), 0},
		{"qdigest/logU=16", onUvals(qd.UpdateBatch), 0}, // sort, merge and compress runs borrowed
		{"gk/eps=0.01", onVals(mergesum.NewGK(0.01).UpdateBatch), 1},
		{"randquant/eps=0.01", onVals(mergesum.NewQuantile(0.01, 1).UpdateBatch), batchLen - 1},
		{"hybrid/eps=0.01", onVals(mergesum.NewQuantileHybrid(0.01, 1).UpdateBatch), 0}, // the lender's free list
		{"mg/weighted,k=64", onWeighted(mergesum.NewMisraGries(64).Update), 0},
		{"spacesaving/weighted,k=256", onWeighted(mergesum.NewSpaceSaving(256).Update), 0},
		{"countmin/weighted,w=1024,d=4", onWeighted(mergesum.NewCountMin(1024, 4, 1).Update), 0},
		{"countsketch/weighted,w=1024,d=4", onWeighted(mergesum.NewCountSketch(1024, 4, 1).Update), 0},
		{"topk/weighted,k=64", onWeighted(mergesum.NewTopK(64, 512, 4, 1).Update), 0},
		{"qdigest/weighted,logU=16", func(off int) {
			for i, v := range uvals[off : off+batchLen] {
				qdw.Update(v, uint64((off+i)%7+1))
			}
		}, 0},
		{"qdigest/per-item,logU=16", func(off int) {
			for _, v := range uvals[off : off+batchLen] {
				qdu.Update(v, 1)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && (strings.HasPrefix(tc.name, "spacesaving") || strings.HasPrefix(tc.name, "topk")) {
				t.Skip("the race detector drops pooled values at random")
			}
			if sanitizeEnabled && (strings.Contains(tc.name, "per-item") || tc.name == "qdigest/weighted,logU=16") {
				t.Skip("a sanitize build clones the digest for its sampled per-item check")
			}
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

	// An edge report builds every summary fresh for one 8192-record
	// chunk: the three families whose batches collapse allocate nothing
	// there beyond what their constructor did — the collapse table and
	// sort scratch are pooled; buckets, directory, heap and membership
	// set are sized by New.
	chunk := gen.NewZipf(2048, 1.1, 5).Stream(8192)
	for _, tc := range []struct {
		name  string
		fresh func() func([]mergesum.Item) // New, returning its UpdateBatch
	}{
		{"spacesaving/fresh,k=64", func() func([]mergesum.Item) { return mergesum.NewSpaceSaving(64).UpdateBatch }},
		{"topk/fresh,k=16", func() func([]mergesum.Item) { return mergesum.NewTopK(16, 512, 4, 11).UpdateBatch }},
		{"kmv/fresh,k=256", func() func([]mergesum.Item) { return mergesum.NewKMV(256, 9).UpdateBatch }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("the race detector drops pooled values at random")
			}
			tc.fresh()(chunk) // warm the pool
			built := testing.AllocsPerRun(20, func() { tc.fresh() })
			fed := testing.AllocsPerRun(20, func() { tc.fresh()(chunk) })
			if fed > built {
				t.Fatalf("New + UpdateBatch of %d items: %.1f allocs; New alone: %.1f", len(chunk), fed, built)
			}
		})
	}

	// The four families that sort keep state that grows with n, and
	// borrow the runs they sort, merge and compress in for the call: a
	// fresh summary fed one chunk at the edge's parameters allocates
	// about the state it keeps — Size() stored elements at their bytes
	// each — and not its scratch. The bound leaves room for append
	// growth of that state (at most as much again) and a few small
	// headers.
	values := gen.LogNormalValues(8192, 0, 1, 5)
	uvalues := make([]uint64, len(values))
	for i, v := range values {
		uvalues[i] = min(uint64(v*4096), 1<<16-1)
	}
	points := gen.UniformPoints(8192, 5)
	for _, tc := range []struct {
		name  string
		elem  int        // bytes per stored element
		fresh func() int // New + one chunk; returns Size()
	}{
		{"qdigest/fresh,eps=0.02", 16, func() int {
			d := mergesum.NewQDigest(16, 0.02)
			d.UpdateBatch(uvalues)
			return d.Size()
		}},
		{"quantile/fresh,eps=0.02", 8, func() int {
			q := mergesum.NewQuantile(0.02, 1)
			q.UpdateBatch(values)
			return q.Size()
		}},
		{"rangecount/fresh,eps=0.05", 20, func() int {
			r := mergesum.NewRangeCounter(0.05, mergesum.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}, 1)
			for _, p := range points {
				r.Update(p)
			}
			return r.Size()
		}},
		{"gk/fresh,eps=0.02", 24, func() int {
			g := mergesum.NewGK(0.02)
			g.UpdateBatch(values)
			return g.Size()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("race instrumentation allocates beside the state")
			}
			if sanitizeEnabled {
				t.Skip("a sanitize build clones summaries for its checks")
			}
			tc.fresh() // warm the lenders
			// The least of a few builds, so that what another goroutine
			// allocates meanwhile is not counted.
			size, allocated := 0, uint64(math.MaxUint64)
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				size = tc.fresh()
				runtime.ReadMemStats(&after)
				allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
			}
			if state := uint64(size * tc.elem); allocated > 2*state+4096 {
				t.Fatalf("New + %d values: %d B allocated for %d B of state", len(values), allocated, state)
			}
		})
	}
}

// TestWarmPromoteAllocs pins the block promotion of the three families
// that buffer and sort — the quantile summary, the range counter, GK —
// at zero allocations once warm: the sort scratch and block storage
// come from the family's lender, whose shelf every P reads and no GC
// empties. Each summary is first fed 16 blocks (one level-4 block
// stored, the rest of its storage in the lender's free list), then
// measured over calls of one block each: block counts 17–24, which
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
