package mergesum_test

import (
	"bytes"
	"testing"

	mergesum "repro"
	"repro/internal/gen"
	"repro/internal/registry"
)

// TestIncompatibleMergeLeavesReceiver: S(D1, ε) ⊎ S(D2, ε') is defined
// only for equal parameters. For every family's catalog merge — and the
// PODS'12 merge mg and ss keep as a method beside it — a merge of an
// operand with another k, ε, geometry or hash seed is an error, and it
// is one before the merge has touched the receiver: the receiver
// encodes to the same bytes after the refused merge as before.
// (A merge that adds the weights up and then checks the geometry leaves
// a summary whose n no longer matches its counters.) The seeds of
// bottomk and rangecount only draw coins, so they are not merge
// parameters.
func TestIncompatibleMergeLeavesReceiver(t *testing.T) {
	items := batchItemStream()[:4000]
	vals := batchValueStream()[:4000]
	pts := gen.UniformPoints(2000, 7)
	box := mergesum.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}
	other := mergesum.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}

	withItems := func(s interface{ UpdateBatch([]mergesum.Item) }, seed int) any {
		s.UpdateBatch(items[seed*100:])
		return s
	}
	withVals := func(s interface{ UpdateBatch([]float64) }, seed int) any {
		s.UpdateBatch(vals[seed*100:])
		return s
	}
	withUvals := func(s *mergesum.QDigest, seed int) any {
		for _, x := range items[seed*100:] {
			s.Update(uint64(x)%(1<<10), 1)
		}
		return s
	}
	withPts := func(s interface{ Update(gen.Point) }, seed int) any {
		for _, p := range pts[seed*100:] {
			s.Update(p)
		}
		return s
	}

	cases := []struct {
		family string
		dst    func() any   // the receiver, fed
		others []func() any // fed operands of other parameters
	}{
		{"mg", func() any { return withItems(mergesum.NewMisraGries(32), 0) }, []func() any{
			func() any { return withItems(mergesum.NewMisraGries(64), 1) },
		}},
		{"ss", func() any { return withItems(mergesum.NewSpaceSaving(32), 0) }, []func() any{
			func() any { return withItems(mergesum.NewSpaceSaving(64), 1) },
		}},
		{"gk", func() any { return withVals(mergesum.NewGK(0.01), 0) }, []func() any{
			func() any { return withVals(mergesum.NewGK(0.02), 1) },
		}},
		{"quantile", func() any { return withVals(mergesum.NewQuantile(0.02, 1), 0) }, []func() any{
			func() any { return withVals(mergesum.NewQuantileHybrid(0.02, 1), 1) },
		}},
		{"countmin", func() any { return withItems(mergesum.NewCountMin(64, 3, 1), 0) }, []func() any{
			func() any { return withItems(mergesum.NewCountMin(128, 3, 1), 1) },
			func() any { return withItems(mergesum.NewCountMin(64, 4, 1), 1) },
			func() any { return withItems(mergesum.NewCountMin(64, 3, 2), 1) },
		}},
		{"countsketch", func() any { return withItems(mergesum.NewCountSketch(64, 3, 1), 0) }, []func() any{
			func() any { return withItems(mergesum.NewCountSketch(128, 3, 1), 1) },
			func() any { return withItems(mergesum.NewCountSketch(64, 5, 1), 1) },
			func() any { return withItems(mergesum.NewCountSketch(64, 3, 2), 1) },
		}},
		{"bottomk", func() any { return withVals(mergesum.NewBottomK(64, 1), 0) }, []func() any{
			func() any { return withVals(mergesum.NewBottomK(128, 1), 1) },
		}},
		{"rangecount", func() any { return withPts(mergesum.NewRangeCounter(0.2, box, 1), 0) }, []func() any{
			func() any { return withPts(mergesum.NewRangeCounter(0.1, box, 1), 1) },
			func() any { return withPts(mergesum.NewRangeCounter(0.2, other, 1), 1) },
		}},
		{"kernel", func() any { return withPts(mergesum.NewKernel(0.1), 0) }, []func() any{
			func() any { return withPts(mergesum.NewKernel(0.05), 1) },
		}},
		{"qdigest", func() any { return withUvals(mergesum.NewQDigest(10, 0.05), 0) }, []func() any{
			func() any { return withUvals(mergesum.NewQDigest(12, 0.05), 1) },
			func() any { return withUvals(mergesum.NewQDigest(10, 0.1), 1) },
		}},
		{"hll", func() any { return withItems(mergesum.NewHLL(8, 1), 0) }, []func() any{
			func() any { return withItems(mergesum.NewHLL(9, 1), 1) },
			func() any { return withItems(mergesum.NewHLL(8, 2), 1) },
		}},
		{"kmv", func() any { return withItems(mergesum.NewKMV(64, 1), 0) }, []func() any{
			func() any { return withItems(mergesum.NewKMV(128, 1), 1) },
			func() any { return withItems(mergesum.NewKMV(64, 2), 1) },
		}},
		{"topk", func() any { return withItems(mergesum.NewTopK(8, 64, 3, 1), 0) }, []func() any{
			func() any { return withItems(mergesum.NewTopK(16, 64, 3, 1), 1) },
			func() any { return withItems(mergesum.NewTopK(8, 128, 3, 1), 1) },
			func() any { return withItems(mergesum.NewTopK(8, 64, 4, 1), 1) },
			func() any { return withItems(mergesum.NewTopK(8, 64, 3, 2), 1) },
		}},
	}
	if len(cases) != len(registry.Entries()) {
		t.Fatalf("the table covers %d families, the registry holds %d", len(cases), len(registry.Entries()))
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			ent, ok := registry.ByName(tc.family)
			if !ok {
				t.Fatalf("%s is not registered", tc.family)
			}
			merges := map[string]func(dst, src any) error{"catalog": ent.Merge}
			switch tc.family {
			case "mg":
				merges["pods12"] = func(d, s any) error { return d.(*mergesum.MisraGries).Merge(s.(*mergesum.MisraGries)) }
			case "ss":
				merges["pods12"] = func(d, s any) error { return d.(*mergesum.SpaceSaving).Merge(s.(*mergesum.SpaceSaving)) }
			}
			for variant, merge := range merges {
				for i, mk := range tc.others {
					dst := tc.dst()
					before, err := ent.Encode(dst)
					if err != nil {
						t.Fatal(err)
					}
					if err := merge(dst, mk()); err == nil {
						t.Fatalf("%s merge of operand %d (other parameters) succeeded", variant, i)
					}
					after, err := ent.Encode(dst)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(before, after) {
						t.Fatalf("%s merge of operand %d (other parameters) was refused after it changed the receiver", variant, i)
					}
				}
			}
		})
	}
}
