package gen

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(3)
	s := make([]int, 100)
	for i := range s {
		s[i] = i
	}
	Shuffle(r, s)
	seen := make(map[int]bool)
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatal("shuffle lost elements")
	}
}

func TestZipfSkew(t *testing.T) {
	const n = 100000
	z := NewZipf(1000, 1.5, 1)
	counts := make(map[core.Item]int)
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank-1 item should dominate: with alpha=1.5 over 1000 items its
	// probability is 1/zeta ≈ 0.39.
	top := counts[z.items[0]]
	if top < n/4 {
		t.Errorf("rank-1 frequency = %d, want > %d", top, n/4)
	}
	// Monotonicity of the first few ranks (statistically robust).
	if counts[z.items[0]] <= counts[z.items[1]] {
		t.Error("rank 1 not more frequent than rank 2")
	}
	if counts[z.items[1]] <= counts[z.items[3]] {
		t.Error("rank 2 not more frequent than rank 4")
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	const n = 100000
	z := NewZipf(10, 0, 2)
	counts := make(map[core.Item]int)
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	for item, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("item %d count %d deviates from uniform %d", item, c, n/10)
		}
	}
}

func TestZipfDeterminism(t *testing.T) {
	a := NewZipf(100, 1.1, 9).Stream(1000)
	b := NewZipf(100, 1.1, 9).Stream(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed Zipf streams differ")
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero universe":  func() { NewZipf(0, 1, 1) },
		"negative alpha": func() { NewZipf(10, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUniformSequentialBlocks(t *testing.T) {
	u := Uniform(1000, 50, 4)
	if len(u) != 1000 {
		t.Fatalf("Uniform len = %d", len(u))
	}
	for _, x := range u {
		if x >= 50 {
			t.Fatalf("Uniform item %d out of universe", x)
		}
	}
	s := Sequential(10)
	for i, x := range s {
		if x != core.Item(i) {
			t.Fatalf("Sequential[%d] = %d", i, x)
		}
	}
}

func TestValueGenerators(t *testing.T) {
	if v := UniformValues(100, 1); len(v) != 100 {
		t.Fatal("UniformValues length")
	}
	if v := NormalValues(100, 1); len(v) != 100 {
		t.Fatal("NormalValues length")
	}
	ln := LogNormalValues(1000, 0, 1, 1)
	for _, v := range ln {
		if v <= 0 {
			t.Fatal("LogNormalValues produced non-positive value")
		}
	}
	sv := SortedValues(5)
	if !sort.Float64sAreSorted(sv) {
		t.Fatal("SortedValues not sorted")
	}
	rv := ReversedValues(5)
	if rv[0] != 4 || rv[4] != 0 {
		t.Fatalf("ReversedValues = %v", rv)
	}
	st := SawtoothValues(100, 7)
	if len(st) != 100 {
		t.Fatalf("SawtoothValues len = %d", len(st))
	}
	st2 := SawtoothValues(5, 0) // period normalized to 1
	if len(st2) != 5 {
		t.Fatalf("SawtoothValues len = %d", len(st2))
	}
}

func TestPointGenerators(t *testing.T) {
	up := UniformPoints(200, 1)
	for _, p := range up {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Fatalf("UniformPoints out of unit square: %v", p)
		}
	}
	rp := RingPoints(500, 2, 0.01, 1)
	for _, p := range rp {
		r := math.Hypot(p.X, p.Y)
		if r < 1.5 || r > 2.5 {
			t.Fatalf("RingPoints radius %v far from 2", r)
		}
	}
	cp := ClusteredPoints(300, 3, 0.01, 1)
	if len(cp) != 300 {
		t.Fatal("ClusteredPoints length")
	}
	gp := GaussianPoints(300, 2, 0.5, math.Pi/6, 1)
	if len(gp) != 300 {
		t.Fatal("GaussianPoints length")
	}
}

func TestPartitionsPreserveStream(t *testing.T) {
	stream := NewZipf(100, 1.2, 5).Stream(997)
	count := func(parts [][]core.Item) map[core.Item]int {
		m := make(map[core.Item]int)
		for _, p := range parts {
			for _, x := range p {
				m[x]++
			}
		}
		return m
	}
	want := count([][]core.Item{stream})
	for name, parts := range map[string][][]core.Item{
		"roundrobin": PartitionRoundRobin(stream, 7),
		"contiguous": PartitionContiguous(stream, 7),
		"random":     PartitionRandomSizes(stream, 7, 1),
		"byhash":     PartitionByHash(stream, 7, func(x core.Item) uint64 { return uint64(x) }),
	} {
		if len(parts) != 7 {
			t.Errorf("%s: %d parts, want 7", name, len(parts))
		}
		got := count(parts)
		if len(got) != len(want) {
			t.Errorf("%s: item set changed", name)
			continue
		}
		for item, c := range want {
			if got[item] != c {
				t.Errorf("%s: count of %d = %d, want %d", name, item, got[item], c)
			}
		}
	}
}

func TestPartitionByHashDisjoint(t *testing.T) {
	stream := NewZipf(100, 1.2, 5).Stream(1000)
	parts := PartitionByHash(stream, 4, func(x core.Item) uint64 { return uint64(x) })
	where := make(map[core.Item]int)
	for i, p := range parts {
		for _, x := range p {
			if j, ok := where[x]; ok && j != i {
				t.Fatalf("item %d appears in parts %d and %d", x, j, i)
			}
			where[x] = i
		}
	}
}

func TestPartitionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"roundrobin": func() { PartitionRoundRobin([]int{1}, 0) },
		"contiguous": func() { PartitionContiguous([]int{1}, 0) },
		"random":     func() { PartitionRandomSizes([]int{1}, 0, 1) },
		"byhash":     func() { PartitionByHash([]int{1}, 0, func(int) uint64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with p=0 did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: contiguous partitioning concatenates back to the original.
func TestPartitionContiguousProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		p := int(pRaw%16) + 1
		stream := make([]core.Item, len(raw))
		for i, v := range raw {
			stream[i] = core.Item(v)
		}
		parts := PartitionContiguous(stream, p)
		var back []core.Item
		for _, part := range parts {
			back = append(back, part...)
		}
		if len(back) != len(stream) {
			return false
		}
		for i := range back {
			if back[i] != stream[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
