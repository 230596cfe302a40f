package epsapprox

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

var unitBox = exact.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}

func queryGrid() []exact.Rect {
	var rs []exact.Rect
	for _, x0 := range []float64{0, 0.2, 0.45} {
		for _, y0 := range []float64{0, 0.3, 0.6} {
			for _, w := range []float64{0.1, 0.35, 0.8} {
				rs = append(rs, exact.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + w/2})
			}
		}
	}
	return rs
}

func maxAbsErr(t *testing.T, s *Summary, pts []gen.Point) uint64 {
	t.Helper()
	var worst uint64
	for _, r := range queryGrid() {
		truth := exact.RangeCount(pts, r)
		got := s.RangeCount(r)
		var d uint64
		if got > truth {
			d = got - truth
		} else {
			d = truth - got
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"s=0":     func() { New(0, unitBox, 1) },
		"box":     func() { New(4, exact.Rect{X0: 1, Y0: 0, X1: 1, Y1: 1}, 1) },
		"eps=0":   func() { NewEpsilon(0, unitBox, 1) },
		"eps=1.5": func() { NewEpsilon(1.5, unitBox, 1) },
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

func TestExactWhenSmall(t *testing.T) {
	s := New(100, unitBox, 1)
	pts := gen.UniformPoints(50, 2)
	for _, p := range pts {
		s.Update(p)
	}
	for _, r := range queryGrid() {
		if got, want := s.RangeCount(r), exact.RangeCount(pts, r); got != want {
			t.Fatalf("small summary not exact: %d vs %d", got, want)
		}
	}
}

func TestWeightConservation(t *testing.T) {
	s := New(16, unitBox, 3)
	for i, p := range gen.UniformPoints(5000, 4) {
		s.Update(p)
		if i%500 == 0 {
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.StoredWeight() != s.N() {
		t.Fatal("weight not conserved")
	}
	// Whole-box query returns exactly n.
	if got := s.RangeCount(unitBox); got != s.N() {
		t.Fatalf("whole-box count %d != n %d", got, s.N())
	}
}

func TestStreamDiscrepancy(t *testing.T) {
	const n = 60000
	eps := 0.05
	for name, pts := range map[string][]gen.Point{
		"uniform":   gen.UniformPoints(n, 1),
		"clustered": gen.ClusteredPoints(n, 5, 0.03, 2),
	} {
		s := NewEpsilon(eps, unitBox, 7)
		for _, p := range pts {
			s.Update(p)
		}
		if worst := maxAbsErr(t, s, pts); worst > uint64(eps*float64(n)) {
			t.Errorf("%s: worst rectangle error %d > eps*n = %v", name, worst, eps*float64(n))
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestMergeTreeDiscrepancy(t *testing.T) {
	const n = 60000
	eps := 0.05
	pts := gen.UniformPoints(n, 11)
	parts := gen.PartitionRandomSizes(pts, 8, 5)
	sums := make([]*Summary, len(parts))
	for i, p := range parts {
		sums[i] = NewEpsilon(eps, unitBox, uint64(i)+20)
		for _, pt := range p {
			sums[i].Update(pt)
		}
	}
	for len(sums) > 1 {
		var next []*Summary
		for i := 0; i+1 < len(sums); i += 2 {
			if err := sums[i].Merge(sums[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, sums[i])
		}
		if len(sums)%2 == 1 {
			next = append(next, sums[len(sums)-1])
		}
		sums = next
	}
	m := sums[0]
	if m.N() != n {
		t.Fatalf("N = %d", m.N())
	}
	if err := m.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if worst := maxAbsErr(t, m, pts); worst > uint64(eps*float64(n)) {
		t.Errorf("worst rectangle error %d > eps*n = %v after merge tree", worst, eps*float64(n))
	}
}

func TestMergeMismatched(t *testing.T) {
	a := New(8, unitBox, 1)
	if err := a.Merge(New(16, unitBox, 1)); err == nil {
		t.Error("mismatched s accepted")
	}
	other := New(8, exact.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, 1)
	if err := a.Merge(other); err == nil {
		t.Error("mismatched box accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestMergeDoesNotModifyOther(t *testing.T) {
	a, b := New(8, unitBox, 1), New(8, unitBox, 2)
	for _, p := range gen.UniformPoints(100, 3) {
		a.Update(p)
	}
	for _, p := range gen.UniformPoints(77, 4) {
		b.Update(p)
	}
	bn, bsize := b.N(), b.Size()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if b.N() != bn || b.Size() != bsize {
		t.Fatal("merge modified other")
	}
	if a.N() != 177 {
		t.Fatalf("a.N = %d", a.N())
	}
}

func TestSizeLogarithmic(t *testing.T) {
	s := New(64, unitBox, 9)
	const n = 1 << 15
	for _, p := range gen.UniformPoints(n, 2) {
		s.Update(p)
	}
	if s.Size() > 64*16 {
		t.Errorf("size %d too large", s.Size())
	}
}

func TestMortonOrdering(t *testing.T) {
	s := New(4, unitBox, 1)
	// Z-order: points in the same quadrant must be closer in Morton
	// order than points in different quadrants.
	bl := s.morton(gen.Point{X: 0.1, Y: 0.1})
	bl2 := s.morton(gen.Point{X: 0.2, Y: 0.2})
	tr := s.morton(gen.Point{X: 0.9, Y: 0.9})
	if !(bl < tr && bl2 < tr) {
		t.Errorf("morton order violates quadrant structure: %d %d %d", bl, bl2, tr)
	}
	// Clamping: out-of-box points do not panic and land at the ends.
	lo := s.morton(gen.Point{X: -5, Y: -5})
	hi := s.morton(gen.Point{X: 5, Y: 5})
	if lo != 0 {
		t.Errorf("clamped low morton = %d", lo)
	}
	if hi != s.morton(gen.Point{X: 1, Y: 1}) {
		t.Errorf("clamped high morton %b != corner %b", hi, s.morton(gen.Point{X: 1, Y: 1}))
	}
}

// halve is a stable merge: on equal Morton keys the occupant's points
// come before the incoming block's, and absorbing another summary's
// block takes the same order as carrying a copy of it.
func TestHalveTiesKeepOccupantFirst(t *testing.T) {
	// Four points of one Morton cell, told apart by their coordinates.
	pts := []gen.Point{{X: 0.5, Y: 0.5}, {X: 0.5 + 1e-9, Y: 0.5}, {X: 0.5, Y: 0.5 + 1e-9}, {X: 0.5 + 1e-9, Y: 0.5 + 1e-9}}
	if k := mortonKey(unitBox, pts[0]); k != mortonKey(unitBox, pts[1]) || k != mortonKey(unitBox, pts[2]) || k != mortonKey(unitBox, pts[3]) {
		t.Fatal("test points fall in different Morton cells")
	}
	check := func(name string, s *Summary) {
		t.Helper()
		if len(s.lv.Blocks) != 2 || s.lv.Blocks[0].Keys != nil || len(s.lv.Blocks[1].Pay) != 2 {
			t.Fatalf("%s: expected one level-1 block, have %d levels", name, len(s.lv.Blocks))
		}
		got := s.lv.Blocks[1].Pay
		if !(got[0] == pts[0] && got[1] == pts[2]) && !(got[0] == pts[1] && got[1] == pts[3]) {
			t.Fatalf("%s: halving kept %v; with the occupant first it keeps points 0,2 or 1,3 of %v", name, got, pts)
		}
	}
	for seed := uint64(1); seed <= 8; seed++ { // both offsets of the alternation
		s := New(2, unitBox, seed)
		for _, p := range pts {
			s.Update(p)
		}
		check("carry", s)

		a, b := New(2, unitBox, seed), New(2, unitBox, seed+100)
		a.Update(pts[0])
		a.Update(pts[1])
		b.Update(pts[2])
		b.Update(pts[3])
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		check("absorb", a)
	}
}

// TestMergeIntoCloneThenOtherBlockSize: a clone's blocks hold more room
// for Morton keys than for points (each slice is rounded to its own
// allocation size class); retired into the shared lender by a merge,
// such a block must not be lent to a summary of a larger block size.
func TestMergeIntoCloneThenOtherBlockSize(t *testing.T) {
	five := New(5, unitBox, 1)
	for _, p := range gen.UniformPoints(5, 2) {
		five.Update(p)
	}
	c := five.Clone()
	if err := c.Merge(five); err != nil {
		t.Fatal(err)
	}
	six := New(6, unitBox, 3)
	pts := gen.UniformPoints(12, 4)
	for _, p := range pts {
		six.Update(p)
	}
	for _, s := range []*Summary{c, six} {
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if got := six.RangeCount(unitBox); got != 12 {
		t.Fatalf("six counts %d of 12 points", got)
	}
}
