package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// xorshift is a local generator: package gen imports core.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// rangeMask has bits [lo, hi) set.
func rangeMask(lo, hi uint) uint64 {
	if hi == lo {
		return 0
	}
	return ^uint64(0) >> (64 - (hi - lo)) << lo
}

// keyBits extracts the sort key of w for the range [lo, hi).
func keyBits(w uint64, lo, hi uint) uint64 { return w & rangeMask(lo, hi) >> lo }

// checkSortKeys sorts a copy of in with SortKeys and with
// slices.SortStableFunc on the key bits and requires identical words in
// identical order — which covers stability and untouched payload bits.
func checkSortKeys(t *testing.T, in []uint64, lo, hi uint) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(a, b uint64) int {
		return cmp.Compare(keyBits(a, lo, hi), keyBits(b, lo, hi))
	})
	got := slices.Clone(in)
	scratch := make([]uint64, len(in)+3)
	for i := range scratch {
		scratch[i] = 0xdeadbeef
	}
	SortKeys(got, scratch, lo, hi)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d bits [%d,%d): SortKeys differs from the stable reference sort", len(in), lo, hi)
	}
}

func TestSortKeysDifferential(t *testing.T) {
	ranges := [][2]uint{{0, 64}, {32, 64}, {0, 16}, {0, 17}, {5, 6}, {3, 3}, {0, 62}, {63, 64}, {8, 24}}
	lengths := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 258, 426, windowMax, windowMax + 1, 8192}
	rng := xorshift(0x9e3779b97f4a7c15)
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		for _, n := range lengths {
			shapes := map[string]func(i int) uint64{
				"random":    func(int) uint64 { return rng.next() },
				"few keys":  func(int) uint64 { return rng.next() &^ rangeMask(min(lo+3, hi), hi) },
				"all equal": func(int) uint64 { return 0x0123_4567_89ab_cdef },
				// Equal keys, distinct payloads in descending order: an
				// unstable sort, or one that sorts whole words, reorders them.
				"equal keys": func(i int) uint64 { return ^uint64(i) &^ rangeMask(lo, hi) },
				"sorted":     func(i int) uint64 { return uint64(i) << lo },
				"reversed":   func(i int) uint64 { return uint64(n-i) << lo },
				"high digit": func(int) uint64 { return rng.next() | 1<<63 | 1<<(hi-1) },
				// One key sets the range's top bit; the others differ only
				// in its low five eighths, below the window.
				"below window": func(i int) uint64 {
					if i == 0 {
						return rng.next() | 1<<(hi-1)
					}
					return rng.next() &^ rangeMask(lo+(hi-lo)*5/8, hi)
				},
				// Four clusters at the top of the range, taken in turn, and
				// eight values spread over four bytes below them: windows
				// shared by a quarter of the keys each, ties within them.
				"clustered ties": func(i int) uint64 {
					k := clusters[i%4]>>(64-(hi-lo)) | rng.next()%8*0x01010101
					return rng.next()&^rangeMask(lo, hi) | k<<lo&rangeMask(lo, hi)
				},
				// About 2√n keys, at random places, share one window and
				// arrive in descending order: an insertion pass needs more
				// moves than its budget, yet so few keys paired at random
				// share a window that the window passes often run first.
				"crowded window": func(i int) uint64 {
					if rng.next()%uint64(n) >= uint64(2*math.Sqrt(float64(n))+2) {
						return rng.next()
					}
					return rng.next()&^rangeMask(lo, hi) | (1<<(hi-lo-1)|uint64(n-i))<<lo&rangeMask(lo, hi)
				},
			}
			for name, gen := range shapes {
				if hi == lo && name != "random" {
					continue
				}
				in := make([]uint64, n)
				for i := range in {
					in[i] = gen(i)
				}
				t.Run(fmt.Sprintf("%d-%d/%d/%s", lo, hi, n, name), func(t *testing.T) { checkSortKeys(t, in, lo, hi) })
			}
		}
	}
}

// TestWindowSortPaths drives windowSort itself: random keys finish in
// the window passes; clustered keys are turned back before a key moves;
// and keys crowding one window in descending order, spread so that few
// random pairs meet, run the passes and then exhaust the insertion
// budget — a stable reordering from which the LSD sort must still give
// the stable reference order.
func TestWindowSortPaths(t *testing.T) {
	rng := xorshift(5)
	mask := ^uint64(0)
	outcomes := map[string]int{}
	for round := 0; round < 40; round++ {
		for _, n := range []int{258, windowMax} {
			c := 2*int(math.Sqrt(float64(n))) + 2
			shapes := map[string]func(i int) uint64{
				"random":    func(int) uint64 { return rng.next() },
				"clustered": func(int) uint64 { return clusters[rng.next()%4] | rng.next()>>32 },
				"crowded": func(i int) uint64 {
					if rng.next()%uint64(n) < uint64(c) {
						return 1<<63 | uint64(n-i)
					}
					return rng.next()
				},
			}
			for name, gen := range shapes {
				in := make([]uint64, n)
				for i := range in {
					in[i] = gen(i)
				}
				keys, scratch := slices.Clone(in), make([]uint64, n)
				var outcome string
				switch {
				case windowSort(keys, scratch, 0, mask):
					outcome = "sorted"
				case slices.Equal(keys, in):
					outcome = "declined"
					lsdSort(keys, scratch, 0, mask)
				default:
					outcome = "fell back"
					lsdSort(keys, scratch, 0, mask)
				}
				outcomes[name+" "+outcome]++
				want := slices.Clone(in)
				slices.SortStableFunc(want, cmp.Compare[uint64])
				if !slices.Equal(keys, want) {
					t.Fatalf("%s, n=%d (%s): differs from the stable reference sort", name, n, outcome)
				}
			}
		}
	}
	for _, want := range []string{"random sorted", "clustered declined", "crowded fell back"} {
		if outcomes[want] == 0 {
			t.Errorf("no run ended %q; outcomes %v", want, outcomes)
		}
	}
	if outcomes["random sorted"] != 80 || outcomes["clustered declined"] != 80 {
		t.Errorf("outcomes %v: every random run should finish in the window passes, every clustered one be declined", outcomes)
	}
}

func FuzzSortKeys(f *testing.F) {
	f.Add(uint8(0), uint8(64), []byte{1, 2, 3})
	f.Add(uint8(32), uint8(32), []byte{9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, a, b uint8, data []byte) {
		lo, hi := uint(a%65), uint(b%65)
		if lo > hi {
			lo, hi = hi, lo
		}
		// Two bytes a word: collisions in every digit, lengths on both
		// sides of the cutoff.
		in := make([]uint64, len(data)/2)
		for i := range in {
			in[i] = uint64(data[2*i])<<lo | uint64(data[2*i+1])<<(uint(data[2*i])%57)
		}
		checkSortKeys(t, in, lo, hi)
	})
}

// floatClasses holds every class of float64 in ascending FloatKey
// order.
var floatClasses = []float64{
	math.Float64frombits(0xfff8_0000_0000_0001), // −NaN
	math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 0x1p-1022, 1, 1.0000000000000002, math.MaxFloat64, math.Inf(1),
	math.NaN(),
}

func TestFloatKey(t *testing.T) {
	for i, v := range floatClasses {
		k := FloatKey(v)
		if got := KeyFloat(k); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("KeyFloat(FloatKey(%v)) = %v (bits %#x, want %#x)", v, got, math.Float64bits(got), math.Float64bits(v))
		}
		if i > 0 && FloatKey(floatClasses[i-1]) >= k {
			t.Errorf("FloatKey(%v) >= FloatKey(%v)", floatClasses[i-1], v)
		}
	}
	rng := xorshift(7)
	for i := 0; i < 10000; i++ {
		a, b := math.Float64frombits(rng.next()), math.Float64frombits(rng.next())
		if math.Float64bits(KeyFloat(FloatKey(a))) != math.Float64bits(a) {
			t.Fatalf("round trip changed %#x", math.Float64bits(a))
		}
		if a < b && FloatKey(a) >= FloatKey(b) {
			t.Fatalf("%v < %v but keys disagree", a, b)
		}
	}
}

// SortFloats agrees with sort.Float64s wherever < orders the input —
// no NaN, at most one kind of zero — and puts −0 before +0 whichever
// arrived first.
func TestSortFloats(t *testing.T) {
	rng := xorshift(11)
	for _, n := range []int{0, 1, 26, radixCutoff, 258, 1000} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Ldexp(float64(int64(rng.next()))/(1<<63), int(rng.next()%40)-20)
			if i%5 == 0 {
				vs[i] = math.Trunc(vs[i]) // duplicates, and +0 but never −0
			}
			if vs[i] == 0 {
				vs[i] = 0
			}
		}
		if n > 2 {
			vs[1], vs[2] = math.Inf(1), math.Inf(-1)
		}
		want := slices.Clone(vs)
		slices.Sort(want)
		SortFloats(vs, make([]uint64, 2*n))
		for i := range vs {
			if math.Float64bits(vs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: position %d holds %v, slices.Sort put %v there", n, i, vs[i], want[i])
			}
		}
	}
	negZero := math.Copysign(0, -1)
	for _, vs := range [][]float64{{0, negZero, 1, negZero, 0}, {negZero, 0, 0, negZero, 1}} {
		for _, pad := range []int{0, radixCutoff} { // both sort paths
			in := slices.Clone(vs)
			for i := 0; i < pad; i++ {
				in = append(in, 2+float64(i))
			}
			SortFloats(in, make([]uint64, 2*len(in)))
			for i, v := range in[:5] {
				if want := []float64{negZero, negZero, 0, 0, 1}[i]; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("zeros sorted as %v", in[:5])
				}
			}
		}
	}
}

func TestSortKeysAllocs(t *testing.T) {
	keys, scratch := make([]uint64, 1024), make([]uint64, 1024)
	vs := make([]float64, 512)
	rng := xorshift(3)
	if n := testing.AllocsPerRun(20, func() {
		for i := range keys {
			keys[i] = rng.next()
		}
		SortKeys(keys, scratch, 0, 64)
		for i := range vs {
			vs[i] = float64(rng.next())
		}
		SortFloats(vs, scratch)
	}); n != 0 {
		t.Fatalf("SortKeys + SortFloats allocate %v times per call, want 0", n)
	}
}

var sortSink uint64

// BenchmarkSortKernel times SortKeys against slices.Sort on the three
// shapes the summaries sort: a quantile block of float keys, a
// rangecount block of (Morton key, position) words, a q-digest batch
// of leaf ids. Every iteration sorts a different array from a pool of
// 2^18 words: a loop that re-sorts one array lets the branch predictor
// memorise the comparison outcomes, and pdqsort then reads 3–4× faster
// than it is on data it has not seen — which is the only kind a
// summary's Update ever sorts.
func BenchmarkSortKernel(b *testing.B) {
	shapes := []struct {
		name   string
		n      int
		lo, hi uint
		gen    func(rng *xorshift, i int) uint64
	}{
		{"floats258", 258, 0, 64, func(rng *xorshift, _ int) uint64 {
			return FloatKey(math.Exp(float64(int64(rng.next())) / (1 << 62)))
		}},
		{"morton426", 426, 32, 64, func(rng *xorshift, i int) uint64 { return rng.next()<<32 | uint64(i) }},
		{"leaves8192", 8192, 0, 16, func(rng *xorshift, _ int) uint64 { return 1<<16 | rng.next()>>48 }},
	}
	for _, sh := range shapes {
		rng := xorshift(42)
		pool := make([][]uint64, (1<<18)/sh.n)
		for p := range pool {
			pool[p] = make([]uint64, sh.n)
			for i := range pool[p] {
				pool[p][i] = sh.gen(&rng, i)
			}
		}
		work, scratch := make([]uint64, sh.n), make([]uint64, sh.n)
		b.Run(sh.name+"/radix", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, pool[i%len(pool)])
				SortKeys(work, scratch, sh.lo, sh.hi)
				sortSink += work[sh.n/2]
			}
		})
		b.Run(sh.name+"/slices.Sort", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, pool[i%len(pool)])
				slices.Sort(work)
				sortSink += work[sh.n/2]
			}
		})
	}
}

// sortShapes are the key shapes BenchmarkSortKeys times: the words the
// summaries sort, and the ones that send windowSort back to the LSD
// sort. Each makes word i of a run of n.
var sortShapes = []struct {
	name   string
	lo, hi uint
	gen    func(rng *xorshift, i, n int) uint64
}{
	{"random", 0, 64, func(rng *xorshift, _, _ int) uint64 { return rng.next() }},
	// A quantile block: float keys.
	{"floats", 0, 64, func(rng *xorshift, _, _ int) uint64 {
		return FloatKey(math.Exp(float64(int64(rng.next())) / (1 << 62)))
	}},
	// A rangecount block: Morton keys over their positions.
	{"morton", 32, 64, func(rng *xorshift, i, _ int) uint64 { return rng.next()<<32 | uint64(i) }},
	// Keys 16 bits wide: the LSD sort's two passes, no window.
	{"narrow", 0, 16, func(rng *xorshift, _, _ int) uint64 { return rng.next() >> 48 }},
	// One key sets the top bit; the others differ only below the
	// window, all in its bucket 0.
	{"below window", 0, 64, func(rng *xorshift, i, _ int) uint64 {
		if i == 0 {
			return 1 << 63
		}
		return rng.next() >> 24
	}},
	// Four clusters, apart in the window, spread below it: four
	// buckets hold every key.
	{"clustered", 0, 64, func(rng *xorshift, _, _ int) uint64 {
		return clusters[rng.next()%4] | rng.next()>>32
	}},
	// The same clusters taken in turn, with eight values below them
	// spread over four bytes: no two neighbours share a window, but
	// keys paired at random do, so the path is declined before a key
	// moves.
	{"clustered ties", 0, 64, func(rng *xorshift, i, _ int) uint64 {
		return clusters[i%4] | rng.next()%8*0x01010101
	}},
}

var clusters = [4]uint64{0x1234 << 48, 0x5678 << 48, 0x9abc << 48, 0xdef0 << 48}

// BenchmarkSortKeys times SortKeys on every shape at the run lengths the
// summaries sort (48 the cutoff, 92 and 128 counter lists, 258 a
// quantile block, 426 a rangecount block, 1024 the window's limit, 8192
// a q-digest batch), a fresh array each iteration from a pool of 2^18
// words.
func BenchmarkSortKeys(b *testing.B) {
	for _, sh := range sortShapes {
		for _, n := range []int{48, 92, 128, 258, 426, 1024, 8192} {
			b.Run(fmt.Sprintf("%s/%d", sh.name, n), func(b *testing.B) {
				rng := xorshift(42)
				pool := make([][]uint64, (1<<18)/n)
				for p := range pool {
					pool[p] = make([]uint64, n)
					for i := range pool[p] {
						pool[p][i] = sh.gen(&rng, i, n)
					}
				}
				work, scratch := make([]uint64, n), make([]uint64, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, pool[i%len(pool)])
					SortKeys(work, scratch, sh.lo, sh.hi)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
			})
		}
	}
}

// SortCountersAsc matches a comparison sort by (count, item) on every
// shape its packed keys can take: both sides of the radix cutoff, counts
// narrow enough to share a word with the index and so wide they lose
// bits to it, few distinct counts (long ties settled by item), and
// counts that tie on their kept bits but differ below them.
func TestSortCountersAscMatchesComparison(t *testing.T) {
	rng := xorshift(11)
	counts := map[string]func() uint64{
		"narrow": func() uint64 { return rng.next() >> 44 },
		"wide":   func() uint64 { return rng.next() },
		"ties":   func() uint64 { return rng.next() % 3 },
		"low":    func() uint64 { return 1<<63 | rng.next()%5 },
		"zero":   func() uint64 { return 0 },
	}
	for name, count := range counts {
		for _, n := range []int{0, 1, 2, 5, 47, 48, 128, 129, 1000} {
			cs := make([]Counter, n)
			for i := range cs {
				cs[i] = Counter{Item(rng.next() % 64), count()}
			}
			want := slices.Clone(cs)
			slices.SortFunc(want, func(a, b Counter) int {
				return cmp.Or(cmp.Compare(a.Count, b.Count), cmp.Compare(a.Item, b.Item))
			})
			SortCountersAsc(cs, nil)
			if !slices.Equal(cs, want) {
				t.Fatalf("%s, n=%d: %v, want %v", name, n, cs, want)
			}
		}
	}
}

func TestSortCountersAscAllocs(t *testing.T) {
	rng := xorshift(5)
	small, large := make([]Counter, 128), make([]Counter, 1024)
	scratch := make([]uint64, 2*len(large))
	if n := testing.AllocsPerRun(20, func() {
		for i := range large {
			large[i] = Counter{Item(rng.next()), rng.next() >> 40}
		}
		copy(small, large)
		SortCountersAsc(small, nil)
		SortCountersAsc(large, scratch)
	}); n != 0 {
		t.Fatalf("SortCountersAsc allocates %v times per call, want 0", n)
	}
}

// BenchmarkSortCountersAsc sorts the combined counters of a
// low-total-error merge, 16, 32 and 128 of them, a fresh array each time.
func BenchmarkSortCountersAsc(b *testing.B) {
	for _, n := range []int{16, 32, 128} {
		rng := xorshift(7)
		pool := make([][]Counter, 1024)
		for p := range pool {
			pool[p] = make([]Counter, n)
			for i := range pool[p] {
				pool[p][i] = Counter{Item(rng.next()), 1 + rng.next()>>52}
			}
		}
		work, scratch := make([]Counter, n), make([]uint64, 2*n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, pool[i%len(pool)])
				SortCountersAsc(work, scratch)
			}
		})
	}
}
