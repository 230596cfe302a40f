package mergesum_test

import (
	"math"
	"testing"

	mergesum "repro"
	"repro/internal/exact"
	"repro/internal/gen"
)

// The facade must expose a complete, coherent workflow for every
// summary family; this test is effectively the README's quickstart.
func TestFacadeFrequencyWorkflow(t *testing.T) {
	const n = 50000
	stream := gen.NewZipf(2000, 1.3, 1).Stream(n)
	truth := exact.FreqOf(stream)
	parts := gen.PartitionContiguous(stream, 8)

	mgs := make([]*mergesum.MisraGries, len(parts))
	sss := make([]*mergesum.SpaceSaving, len(parts))
	for i, p := range parts {
		mgs[i] = mergesum.NewMisraGriesEpsilon(0.005)
		sss[i] = mergesum.NewSpaceSavingEpsilon(0.005)
		for _, x := range p {
			mgs[i].Update(x, 1)
			sss[i].Update(x, 1)
		}
	}
	mgMerged, err := mergesum.MergeBinary(mgs, (*mergesum.MisraGries).Merge)
	if err != nil {
		t.Fatal(err)
	}
	ssMerged, err := mergesum.MergeParallel(sss, 4, (*mergesum.SpaceSaving).MergeLowError)
	if err != nil {
		t.Fatal(err)
	}
	if mgMerged.N() != n || ssMerged.N() != n {
		t.Fatalf("N: mg=%d ss=%d", mgMerged.N(), ssMerged.N())
	}
	top := truth.Counters()[0]
	if e := mgMerged.Estimate(top.Item); !e.Contains(top.Count) {
		t.Errorf("mg interval %v misses %d", e, top.Count)
	}
	if e := ssMerged.Estimate(top.Item); !e.Contains(top.Count) {
		t.Errorf("ss interval %v misses %d", e, top.Count)
	}
}

func TestFacadeQuantileWorkflow(t *testing.T) {
	const n = 40000
	vals := gen.NormalValues(n, 2)
	oracle := exact.QuantilesOf(vals)
	parts := gen.PartitionRandomSizes(vals, 6, 3)

	qs := make([]*mergesum.Quantile, len(parts))
	for i, p := range parts {
		qs[i] = mergesum.NewQuantile(0.02, uint64(i)+1)
		for _, v := range p {
			qs[i].Update(v)
		}
	}
	merged, err := mergesum.MergeSequential(qs, (*mergesum.Quantile).Merge)
	if err != nil {
		t.Fatal(err)
	}
	med := merged.Quantile(0.5)
	rank := oracle.Rank(med)
	if rank < n/2-n/25 || rank > n/2+n/25 {
		t.Errorf("median rank %d too far from %d", rank, n/2)
	}

	gkS := mergesum.NewGK(0.01)
	hyb := mergesum.NewQuantileHybrid(0.02, 9)
	bk := mergesum.NewBottomK(2048, 10)
	for _, v := range vals {
		gkS.Update(v)
		hyb.Update(v)
		bk.Update(v)
	}
	for name, q := range map[string]float64{
		"gk":      gkS.Quantile(0.5),
		"hybrid":  hyb.Quantile(0.5),
		"bottomk": bk.Quantile(0.5),
	} {
		r := oracle.Rank(q)
		if r < n/2-n/10 || r > n/2+n/10 {
			t.Errorf("%s median rank %d too far from %d", name, r, n/2)
		}
	}
}

// TestNaNQueries: the quantile families answer a NaN query by one rule
// (DESIGN.md, "A NaN query"): Rank(NaN) is 0 and GK's RankBounds(NaN)
// is [0, 0], because no stored value is <= NaN, and Quantile(NaN)
// answers as phi = 1. Each family is fed the values 0…99.
func TestNaNQueries(t *testing.T) {
	nan := math.NaN()
	q := mergesum.NewQuantile(0.05, 1)
	g := mergesum.NewGK(0.05)
	bk := mergesum.NewBottomK(16, 1)
	d := mergesum.NewQDigest(8, 0.05)
	for v := range 100 {
		q.Update(float64(v))
		g.Update(float64(v))
		bk.Update(float64(v))
		d.Update(uint64(v), 1)
	}
	for _, f := range []struct {
		name     string
		rank     func(float64) uint64 // nil: q-digest ranks integers
		quantile func(float64) float64
	}{
		{"quantile", q.Rank, q.Quantile},
		{"gk", g.Rank, g.Quantile},
		{"bottomk", bk.Rank, bk.Quantile},
		{"qdigest", nil, func(phi float64) float64 { return float64(d.Quantile(phi)) }},
	} {
		if f.rank != nil {
			if r := f.rank(nan); r != 0 {
				t.Errorf("%s: Rank(NaN) = %d, want 0", f.name, r)
			}
		}
		if got, want := f.quantile(nan), f.quantile(1); got != want {
			t.Errorf("%s: Quantile(NaN) = %v, want Quantile(1) = %v", f.name, got, want)
		}
	}
	if lo, hi := g.RankBounds(nan); lo != 0 || hi != 0 {
		t.Errorf("gk: RankBounds(NaN) = [%d, %d], want [0, 0]", lo, hi)
	}
}

func TestFacadeSketchesAndGeometry(t *testing.T) {
	cm := mergesum.NewCountMin(256, 4, 7)
	cs := mergesum.NewCountSketch(256, 4, 7)
	for i := 0; i < 1000; i++ {
		cm.Update(42, 1)
		cs.Update(42, 1)
	}
	if cm.Estimate(42).Value < 1000 {
		t.Error("countmin underestimated")
	}
	if v := cs.Estimate(42).Value; v < 900 || v > 1100 {
		t.Errorf("countsketch estimate %d far from 1000", v)
	}

	box := mergesum.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}
	rc := mergesum.NewRangeCounter(0.05, box, 3)
	pts := gen.UniformPoints(5000, 4)
	for _, p := range pts {
		rc.Update(p)
	}
	q := mergesum.Rect{X0: 0, Y0: 0, X1: 0.5, Y1: 0.5}
	got, want := rc.RangeCount(q), exact.RangeCount(pts, q)
	diff := int64(got) - int64(want)
	if diff < 0 {
		diff = -diff
	}
	if diff > 5000/20 {
		t.Errorf("range count %d too far from %d", got, want)
	}

	kn := mergesum.NewKernel(0.1)
	for _, p := range gen.RingPoints(2000, 1, 0.01, 5) {
		kn.Update(p)
	}
	if w := kn.Width(0.3); w < 1.5 || w > 2.5 {
		t.Errorf("ring width %v far from 2", w)
	}
}

func TestFacadeBounds(t *testing.T) {
	if mergesum.MGBound(100, 9) != 10 {
		t.Error("MGBound")
	}
	if mergesum.SSBound(100, 10) != 10 {
		t.Error("SSBound")
	}
	if mergesum.HeavyThreshold(100, 5) != 21 {
		t.Error("HeavyThreshold")
	}
}

// Summaries round-trip through the facade-visible codec interface.
func TestFacadeCodecs(t *testing.T) {
	s := mergesum.NewMisraGries(16)
	for _, x := range gen.NewZipf(100, 1.2, 1).Stream(5000) {
		s.Update(x, 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got mergesum.MisraGries
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() {
		t.Error("round trip lost N")
	}
}
