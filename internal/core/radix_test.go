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
	lengths := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 258, 426, 8192}
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
