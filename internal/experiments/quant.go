package experiments

import (
	"fmt"
	"math"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/gk"
	"repro/internal/mergetree"
	"repro/internal/randquant"
	"repro/internal/stats"
)

func init() {
	register("E05", "GK summary: size and error vs. the O((1/ε)log(εn)) bound (PODS'12 §3.1)", runE05)
	register("E06", "GK under repeated merging: size drift motivates the randomized summary (PODS'12 §3.1→3.2)", runE06)
	register("E07", "Randomized equal-weight merge: unbiased, error within εn (PODS'12 §3.2)", runE07)
	register("E08", "Randomized mergeable quantiles: arbitrary partitions and topologies (PODS'12 Thm 3.4)", runE08)
	register("E09", "Hybrid summary: size independent of n at equal error (PODS'12 §3.3-3.4)", runE09)
}

func runE05(cfg Config) Result {
	n := cfg.n()
	epss := []float64{0.1, 0.01, 0.001}
	if cfg.Quick {
		epss = []float64{0.01}
	}
	tb := stats.NewTable(
		fmt.Sprintf("E05: GK single-stream size and error, n=%d", n),
		"eps", "dist", "size", "(1/eps)log2(eps*n)", "maxRelErr", "err/eps")
	for _, eps := range epss {
		for _, dist := range []string{"uniform", "sorted"} {
			var vals []float64
			if dist == "uniform" {
				vals = gen.UniformValues(n, cfg.Seed+1)
			} else {
				vals = gen.SortedValues(n)
			}
			s := gk.New(eps)
			s.UpdateBatch(vals)
			s.Flush()
			oracle := exact.QuantilesOf(vals)
			qe := stats.MeasureQuantiles(oracle, s, stats.DefaultPhis)
			theory := math.Ceil(1 / eps * math.Max(1, math.Log2(eps*float64(n))))
			tb.AddRow(eps, dist, s.Size(), theory, qe.MaxRel, qe.MaxRel/eps)
		}
	}
	return Result{
		ID: "E05", Title: "GK size and error", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: size tracks O((1/eps)·log(eps·n)) and realized rank error stays below eps (err/eps < 1).",
		},
	}
}

func runE06(cfg Config) Result {
	n := cfg.n()
	eps := 0.01
	siteCounts := []int{1, 4, 16, 64}
	if cfg.Quick {
		siteCounts = []int{1, 8}
	}
	vals := gen.UniformValues(n, cfg.Seed+3)
	oracle := exact.QuantilesOf(vals)
	tb := stats.NewTable(
		fmt.Sprintf("E06: GK vs randomized summary under binary-tree merging, n=%d, eps=%v", n, eps),
		"sites", "summary", "size", "maxRelErr", "err/eps")
	for _, sites := range siteCounts {
		parts := gen.PartitionContiguous(vals, sites)
		gkM, err := mergetree.BuildAndMerge(parts,
			func(part []float64) *gk.Summary {
				s := gk.New(eps)
				s.UpdateBatch(part)
				return s
			},
			mergetree.Binary[*gk.Summary], (*gk.Summary).Merge)
		if err != nil {
			panic(err)
		}
		gkM.Flush()
		qe := stats.MeasureQuantiles(oracle, gkM, stats.DefaultPhis)
		tb.AddRow(sites, "gk", gkM.Size(), qe.MaxRel, qe.MaxRel/eps)

		seed := cfg.Seed
		rqM, err := mergetree.BuildAndMerge(parts,
			func(part []float64) *randquant.Summary {
				seed++
				s := randquant.NewEpsilon(eps, seed)
				s.UpdateBatch(part)
				return s
			},
			mergetree.Binary[*randquant.Summary], (*randquant.Summary).Merge)
		if err != nil {
			panic(err)
		}
		qe = stats.MeasureQuantiles(oracle, rqM, stats.DefaultPhis)
		tb.AddRow(sites, "randquant", rqM.Size(), qe.MaxRel, qe.MaxRel/eps)
	}
	return Result{
		ID: "E06", Title: "GK merge degradation", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: GK's error parameter survives merging but its compressed size drifts upward with the number of merges (GK is only one-way mergeable); the randomized summary's size is flat.",
		},
	}
}

func runE07(cfg Config) Result {
	n := cfg.n()
	eps := 0.02
	js := []int{1, 2, 4, 6, 8} // 2^j equal partitions
	trials := 9
	if cfg.Quick {
		js = []int{3}
		trials = 3
	}
	vals := gen.NormalValues(n, cfg.Seed+5)
	oracle := exact.QuantilesOf(vals)
	tb := stats.NewTable(
		fmt.Sprintf("E07: equal-weight binary merge tree of 2^j sites, n=%d, eps=%v, %d trials", n, eps, trials),
		"2^j sites", "maxRelErr(max over trials)", "meanRelErr", "meanSignedErr@0.5", "err/eps")
	for _, j := range js {
		sites := 1 << j
		parts := gen.PartitionContiguous(vals, sites)
		var worst, meanSum, signedSum float64
		for trial := 0; trial < trials; trial++ {
			seed := cfg.Seed + uint64(trial)*1000
			m, err := mergetree.BuildAndMerge(parts,
				func(part []float64) *randquant.Summary {
					seed++
					s := randquant.NewEpsilon(eps, seed)
					s.UpdateBatch(part)
					return s
				},
				mergetree.Binary[*randquant.Summary], (*randquant.Summary).Merge)
			if err != nil {
				panic(err)
			}
			qe := stats.MeasureQuantiles(oracle, m, stats.DefaultPhis)
			if qe.MaxRel > worst {
				worst = qe.MaxRel
			}
			meanSum += qe.MeanRel
			// Signed rank error of the median: unbiasedness check.
			got := m.Quantile(0.5)
			signedSum += (float64(oracle.Rank(got)) - 0.5*float64(n)) / float64(n)
		}
		tb.AddRow(sites, worst, meanSum/float64(trials), signedSum/float64(trials), worst/eps)
	}
	return Result{
		ID: "E07", Title: "Equal-weight merges", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim (Lemma 3.1 shape): the randomized merge is unbiased (signed error centered on 0) and the max rank error stays below eps*n regardless of tree depth j.",
		},
	}
}

func runE08(cfg Config) Result {
	n := cfg.n()
	epss := []float64{0.05, 0.02, 0.01}
	sites := 16
	if cfg.Quick {
		epss = []float64{0.02}
	}
	vals := gen.UniformValues(n, cfg.Seed+9)
	oracle := exact.QuantilesOf(vals)
	tb := stats.NewTable(
		fmt.Sprintf("E08: randomized mergeable quantiles, random-size partitions, n=%d, %d sites", n, sites),
		"eps", "topology", "size", "maxRelErr", "err/eps")
	for _, eps := range epss {
		parts := gen.PartitionRandomSizes(vals, sites, cfg.Seed+2)
		for _, fname := range foldOrder {
			seed := cfg.Seed + 31
			fold := folds[*randquant.Summary](cfg.Seed + 41)[fname]
			m, err := mergetree.BuildAndMerge(parts,
				func(part []float64) *randquant.Summary {
					seed++
					s := randquant.NewEpsilon(eps, seed)
					s.UpdateBatch(part)
					return s
				},
				fold, (*randquant.Summary).Merge)
			if err != nil {
				panic(err)
			}
			qe := stats.MeasureQuantiles(oracle, m, stats.DefaultPhis)
			tb.AddRow(eps, fname, m.Size(), qe.MaxRel, qe.MaxRel/eps)
		}
	}
	return Result{
		ID: "E08", Title: "Fully mergeable quantiles", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim (Thm 3.4): for every topology and unequal partition sizes the rank error stays below eps*n (err/eps < 1) with size O((1/eps)·sqrt(log(1/eps))·log(n)).",
		},
	}
}

func runE09(cfg Config) Result {
	eps := 0.02
	ns := []int{1 << 14, 1 << 17, 1 << 20}
	if cfg.Quick {
		ns = []int{1 << 14, 1 << 16}
	}
	tb := stats.NewTable(
		fmt.Sprintf("E09: plain vs hybrid summary size as n grows, eps=%v", eps),
		"n", "summary", "size", "levels-ish", "maxRelErr", "err/eps")
	for _, n := range ns {
		vals := gen.UniformValues(n, cfg.Seed+uint64(n))
		oracle := exact.QuantilesOf(vals)

		plain := randquant.NewEpsilon(eps, cfg.Seed+1)
		plain.UpdateBatch(vals)
		qe := stats.MeasureQuantiles(oracle, plain, stats.DefaultPhis)
		tb.AddRow(n, "plain", plain.Size(), plain.Levels(), qe.MaxRel, qe.MaxRel/eps)

		hybrid := randquant.NewHybridEpsilon(eps, cfg.Seed+2) // the same type, with a level budget
		hybrid.UpdateBatch(vals)
		qe = stats.MeasureQuantiles(oracle, hybrid, stats.DefaultPhis)
		tb.AddRow(n, "hybrid", hybrid.Size(), hybrid.SampleLevel(), qe.MaxRel, qe.MaxRel/eps)
	}
	return Result{
		ID: "E09", Title: "Hybrid size independence", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim (§3.3-3.4): the plain summary's size grows with log(n) (levels column) while the hybrid's stays flat (its sampling level absorbs growth), at comparable realized error.",
		},
	}
}
