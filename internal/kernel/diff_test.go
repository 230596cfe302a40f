package kernel

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
)

// pair drives a kernel under test and the full-scan oracle through the
// same operations; after each one the two must encode to the same
// bytes, and a box the kernel holds must have four corners that pass
// the triangle test. rejected counts the points the interior filter
// dismissed, boxed those of them the box did.
type pair struct {
	t               testing.TB
	got, want       *Kernel
	rejected, boxed int
}

func newPair(t testing.TB, m int) *pair {
	return &pair{t: t, got: New(m), want: New(m)}
}

// boxCornersPass reports whether k has no box, or a box whose four
// corners each pass interior's triangle test — what the box's
// soundness rests on.
func boxCornersPass(k *Kernel) bool {
	b := k.box
	if b == (box{}) {
		return true
	}
	k.box = box{}
	defer func() { k.box = b }()
	for _, c := range []gen.Point{{X: b.x0, Y: b.y0}, {X: b.x1, Y: b.y0}, {X: b.x1, Y: b.y1}, {X: b.x0, Y: b.y1}} {
		if !k.interior(c) {
			return false
		}
	}
	return true
}

func (pr *pair) check(op string) {
	pr.t.Helper()
	if !boxCornersPass(pr.got) {
		pr.t.Fatalf("after %s (n=%d): a corner of box %+v fails the triangle test", op, pr.want.n, pr.got.box)
	}
	g, err := pr.got.MarshalBinary()
	if err != nil {
		pr.t.Fatal(err)
	}
	w, err := pr.want.MarshalBinary()
	if err != nil {
		pr.t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		pr.t.Fatalf("after %s (n=%d): frame differs from the full scan's", op, pr.want.n)
	}
}

func (pr *pair) update(pts ...gen.Point) {
	pr.t.Helper()
	for _, p := range pts {
		if pr.got.interior(p) {
			pr.rejected++
		}
		if pr.got.box.holds(p) {
			pr.boxed++
		}
		pr.got.Update(p)
		refUpdate(pr.want, p)
		pr.check("Update")
	}
}

// merge folds a kernel over pts, built by the oracle, into both sides.
func (pr *pair) merge(pts []gen.Point) {
	pr.t.Helper()
	other := New(pr.want.m)
	for _, p := range pts {
		refUpdate(other, p)
	}
	if err := pr.got.Merge(other); err != nil {
		pr.t.Fatal(err)
	}
	if err := pr.want.Merge(other); err != nil {
		pr.t.Fatal(err)
	}
	pr.check("Merge")
}

// decode replaces both sides by their own frames, decoded.
func (pr *pair) decode() {
	pr.t.Helper()
	pr.got, pr.want = roundTrip(pr.t, pr.got), roundTrip(pr.t, pr.want)
	pr.check("decode")
}

func roundTrip(t testing.TB, k *Kernel) *Kernel {
	t.Helper()
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := new(Kernel)
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return out
}

func (pr *pair) clone() {
	pr.t.Helper()
	pr.got, pr.want = pr.got.Clone(), pr.want.Clone()
	pr.check("Clone")
}

func (pr *pair) reset() {
	pr.t.Helper()
	pr.got.Reset()
	pr.want.Reset()
	pr.check("Reset")
}

func scaled(pts []gen.Point, f float64) []gen.Point {
	out := make([]gen.Point, len(pts))
	for i, p := range pts {
		out[i] = gen.Point{X: p.X * f, Y: p.Y * f}
	}
	return out
}

func TestUpdateMatchesFullScan(t *testing.T) {
	const n = 3000
	inf, nan := math.Inf(1), math.NaN()
	collinear := make([]gen.Point, n)
	for i, p := range gen.UniformPoints(n, 4) {
		collinear[i] = gen.Point{X: p.X, Y: 2*p.X + 1}
	}
	duplicates := make([]gen.Point, n)
	for i := range duplicates {
		duplicates[i] = gen.Point{X: 0.25, Y: -3}
	}
	uniform := gen.UniformPoints(n, 1)
	wild := append([]gen.Point{}, uniform[:200]...)
	wild = append(wild, gen.Point{X: inf, Y: 0}, gen.Point{X: 0.5, Y: nan}, gen.Point{X: -inf, Y: inf}, gen.Point{X: nan, Y: nan})
	wild = append(wild, uniform[200:400]...)

	for _, tc := range []struct {
		name    string
		pts     []gen.Point
		engaged bool // most of the stream's second half must be filtered out
		boxed   bool // ... three quarters of it by the box
	}{
		{"uniform", uniform, true, true},
		{"ring", gen.RingPoints(n, 1, 0, 2), false, false},
		{"ring-noisy", gen.RingPoints(n, 1, 0.05, 2), true, false},
		{"gaussian", gen.GaussianPoints(n, 3, 0.5, math.Pi/7, 3), true, false},
		{"clustered", gen.ClusteredPoints(n, 5, 0.02, 5), true, false},
		{"collinear", collinear, false, false},
		{"duplicates", duplicates, false, false},
		{"inf-nan", wild, false, false},
		{"nan-first", append([]gen.Point{{X: nan, Y: 1}}, uniform[:300]...), false, false},
		{"1e150", scaled(uniform, 1e150), true, true},
		{"1e-150", scaled(uniform, 1e-150), false, false},
		{"1e160", scaled(uniform, 1e160), false, false},
		{"1e-160", scaled(uniform, 1e-160), false, false},
		{"mixed-scale", append(scaled(uniform[:500], 1e-200), uniform[:500]...), false, false},
	} {
		for _, m := range []int{2, 7, 126} {
			pr := newPair(t, m)
			half := len(tc.pts) / 2
			pr.update(tc.pts[:half]...)
			pr.rejected, pr.boxed = 0, 0
			pr.update(tc.pts[half:]...)
			if tc.engaged && m == 126 && pr.rejected < (len(tc.pts)-half)*8/10 {
				t.Errorf("%s m=%d: filter dismissed %d of %d points", tc.name, m, pr.rejected, len(tc.pts)-half)
			}
			if tc.boxed && m == 126 && pr.boxed < (len(tc.pts)-half)*3/4 {
				t.Errorf("%s m=%d: box dismissed %d of %d points", tc.name, m, pr.boxed, len(tc.pts)-half)
			}
		}
	}

	// Kernels that did not grow up under Update must engage the filter
	// too, and stay on the oracle's bytes while they do.
	inner := scaled(gen.UniformPoints(500, 9), 0.5) // inside [0, 0.5]²
	for name, arrive := range map[string]func(pr *pair){
		"Merge":  func(pr *pair) { pr.merge(uniform) },
		"decode": func(pr *pair) { pr.update(uniform...); pr.decode() },
		"Clone":  func(pr *pair) { pr.update(uniform...); pr.clone() },
		"Reset":  func(pr *pair) { pr.update(gen.RingPoints(n, 50, 1, 7)...); pr.reset(); pr.update(uniform...) },
		"Merge into a decoded kernel": func(pr *pair) {
			pr.update(uniform[:1000]...)
			pr.decode()
			pr.merge(uniform[1000:])
		},
	} {
		pr := newPair(t, 126)
		arrive(pr)
		pr.rejected = 0
		pr.update(inner...)
		if pr.rejected < len(inner)*8/10 {
			t.Errorf("after %s: filter dismissed %d of %d interior points", name, pr.rejected, len(inner))
		}
		pr.update(gen.RingPoints(200, 3, 0.5, 6)...) // and keeps tracking slots that move
	}
}

// A decoded frame whose points do not respect its own support values,
// or that leaves slots empty — as a peer that does not run this
// package's Update could send it — gives the filter nothing it may
// rely on: Update must fall back to what the scan does with that state.
func TestUpdateOnInconsistentFrame(t *testing.T) {
	const m = 8
	honest := func() *Kernel {
		k := New(m)
		for _, p := range gen.RingPoints(500, 10, 0.1, 1) {
			refUpdate(k, p)
		}
		return k
	}
	for name, spoil := range map[string]func(k *Kernel){
		"support values all zero": func(k *Kernel) { clear(k.bestDot) },
		"one support value low":   func(k *Kernel) { k.bestDot[5]-- },
		"one support value NaN":   func(k *Kernel) { k.bestDot[2] = math.NaN() },
		"empty slots":             func(k *Kernel) { k.has[3], k.has[11] = false, false },
	} {
		for via, arrive := range map[string]func(in *Kernel) *Kernel{
			"decoded": func(in *Kernel) *Kernel { return in },
			"cloned":  (*Kernel).Clone,
			"merged": func(in *Kernel) *Kernel { // second-hand, through an honest kernel
				k := New(m)
				if err := k.Merge(in); err != nil {
					t.Fatal(err)
				}
				return k
			},
		} {
			sent := honest()
			spoil(sent)
			pr := &pair{t: t, got: arrive(roundTrip(t, sent)), want: arrive(roundTrip(t, sent))}
			pr.check(name + ", " + via)
			pr.update(gen.UniformPoints(300, 2)...)
			pr.update(gen.RingPoints(300, 12, 1, 3)...)
		}
	}
}

// The box lives and dies with the polygon: a decode and a Reset leave
// the kernel without one, and a kernel holding a frame whose stored
// points beat its support values never fits one again — decoded, it
// starts without a box; merged, it keeps its old one (as safe as the
// old polygon) only until the rebuild that refutes the frame.
func TestBoxFollowsPolygon(t *testing.T) {
	engaged := func() *Kernel {
		k := NewEpsilon(0.1)
		for _, p := range gen.UniformPoints(4000, 1) {
			k.Update(p)
		}
		if k.box == (box{}) {
			t.Fatal("no box after a uniform stream")
		}
		return k
	}
	k := engaged()
	frame, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	if k.box != (box{}) {
		t.Error("the box survives UnmarshalBinary")
	}
	k = engaged()
	k.Reset()
	if k.box != (box{}) {
		t.Error("the box survives Reset")
	}

	// A frame of far points that claims honest support only in slot 0:
	// its points beat every other support value it sends, and a kernel
	// that merges it stores one that beats its own.
	liar := NewEpsilon(0.1)
	for _, p := range scaled(gen.UniformPoints(200, 5), 10) {
		refUpdate(liar, p)
	}
	for slot := 1; slot < len(liar.bestDot); slot++ {
		liar.bestDot[slot] = -1e6
	}
	lie, err := liar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for via, arrive := range map[string]func() *Kernel{
		"decoded": func() *Kernel {
			k := engaged()
			if err := k.UnmarshalBinary(lie); err != nil {
				t.Fatal(err)
			}
			return k
		},
		"merged": func() *Kernel {
			k, in := engaged(), new(Kernel)
			if err := in.UnmarshalBinary(lie); err != nil {
				t.Fatal(err)
			}
			if err := k.Merge(in); err != nil {
				t.Fatal(err)
			}
			return k
		},
	} {
		k := arrive()
		for i, p := range append(gen.UniformPoints(4000, 2), gen.RingPoints(500, 1, 0.2, 3)...) {
			k.Update(p)
			if k.box != (box{}) && (via == "decoded" || k.trust == refuted) {
				t.Fatalf("%s: a box after update %d (trust %d)", via, i, k.trust)
			}
		}
		if k.trust != refuted {
			t.Errorf("%s: the frame was never refuted", via)
		}
	}
}

// FuzzUpdateMatchesFullScan runs a byte program — updates on a coarse
// lattice (ties, duplicates, collinear runs), special coordinates,
// merges, decodes, clones, resets — against the full-scan oracle.
func FuzzUpdateMatchesFullScan(f *testing.F) {
	// A square, interior points, then the same again after a decode, a
	// clone and a merge.
	f.Add([]byte{0, 0, 0, 1, 255, 0, 2, 255, 255, 3, 0, 255, 0, 128, 128, 1, 100, 140,
		6, 2, 128, 128, 7, 0, 3, 120, 120, 5, 2, 90, 90, 160, 170, 0, 128, 128})
	f.Add([]byte{4, 0, 1, 4, 2, 3, 0, 1, 1, 5, 3, 9, 9, 200, 7, 70, 70, 0, 50, 50, 7, 0, 7, 1})
	f.Add([]byte{})
	// A square and a diamond, each followed by interior points its box
	// takes, again after a decode (which drops the box) and a reset.
	inner := []byte{0, 128, 128, 1, 100, 140, 2, 150, 110, 3, 90, 170, 0, 170, 90, 1, 110, 150, 2, 128, 129}
	square := []byte{0, 0, 0, 1, 255, 0, 2, 255, 255, 3, 0, 255}
	diamond := []byte{0, 128, 8, 1, 248, 128, 2, 128, 248, 3, 8, 128}
	f.Add(slices.Concat(square, inner, inner, []byte{6}, inner, inner, []byte{7, 1}, diamond, inner, inner))
	f.Add(slices.Concat(diamond, inner, inner, []byte{5, 3, 0, 0, 255, 255, 128, 0}, inner, []byte{6}, inner, inner))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e150, -1e150, 1e-150, 0, 1e300}
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		lattice := func() gen.Point {
			return gen.Point{X: float64(int(next())-128) / 16, Y: float64(int(next())-128) / 16}
		}
		pr := newPair(t, 7)
		for len(prog) > 0 {
			switch op := next() % 8; op {
			default:
				pr.update(lattice())
			case 4:
				pr.update(gen.Point{X: special[next()%8], Y: special[next()%8]})
			case 5:
				pts := make([]gen.Point, next()%8)
				for i := range pts {
					pts[i] = lattice()
				}
				pr.merge(pts)
			case 6:
				pr.decode()
			case 7:
				if next()%2 == 0 {
					pr.clone()
				} else {
					pr.reset()
				}
			}
		}
	})
}

func TestWidthAllocatesNothing(t *testing.T) {
	k := NewEpsilon(0.1)
	for _, p := range gen.RingPoints(2000, 1, 0.05, 1) {
		k.Update(p)
	}
	var w float64
	if a := testing.AllocsPerRun(100, func() { w += k.Width(0.3) }); a != 0 {
		t.Fatalf("Width: %v allocs per call, want 0", a)
	}
}

// TestUpdateAllocatesNothing pins the per-point Update of a warm kernel
// at zero allocations, over points of every fate: dismissed by the box
// or by a triangle, and scanned — some of those take a slot, and the
// polygon and box are rebuilt into the storage they already have. Each
// run resets the kernel and feeds it 2000 points, so the rebuilds of a
// kernel growing from empty happen in every run, and an allocation
// there shows through AllocsPerRun's average.
func TestUpdateAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []gen.Point
	}{
		{"uniform", gen.UniformPoints(2000, 1)},
		{"gaussian", gen.GaussianPoints(2000, 1, 0.3, 0.5, 2)},
		{"ring", gen.RingPoints(2000, 1, 0.05, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewEpsilon(0.1)
			if a := testing.AllocsPerRun(20, func() {
				k.Reset()
				for _, p := range tc.pts {
					k.Update(p)
				}
			}); a != 0 {
				t.Fatalf("Reset and 2000 Updates: %v allocs, want 0", a)
			}
		})
	}
}
