package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/spacesaving"
	"repro/internal/stats"
)

func init() {
	register("E01", "MG mergeability: realized error vs. n/(k+1) bound across merge topologies (PODS'12 Thm 2.2)", runE01)
	register("E02", "SpaceSaving mergeability and the SS↔MG isomorphism (PODS'12 §2)", runE02)
	register("E03", "Heavy-hitter recall/precision after merging (PODS'12 §2)", runE03)
	register("E04", "Total merge error: PODS'12 prune vs. low-total-error closed form (supplied text §5)", runE04)
}

func runE01(cfg Config) Result {
	n := cfg.n()
	alphas := []float64{1.1, 1.5, 2.0}
	ks := []int{16, 64, 256}
	sites := 16
	if cfg.Quick {
		alphas = []float64{1.2}
		ks = []int{32}
	}
	tb := stats.NewTable(
		fmt.Sprintf("E01: Misra–Gries merge error, n=%d, %d sites, hash-partitioned", n, sites),
		"alpha", "k", "topology", "maxUnder", "bound n/(k+1)", "ratio", "sumAbs", "violations")
	for _, alpha := range alphas {
		stream := gen.NewZipf(n/20, alpha, cfg.Seed+uint64(alpha*100)).Stream(n)
		truth := exact.FreqOf(stream)
		parts := gen.PartitionByHash(stream, sites, func(x core.Item) uint64 { return uint64(x) * 2654435761 })
		for _, k := range ks {
			for _, fname := range mergetree.Topologies {
				fold := mergetree.Fold[*mg.Summary](fname, cfg.Seed+7)
				merged, err := mergetree.BuildAndMerge(parts,
					func(part []core.Item) *mg.Summary {
						s := mg.New(k)
						s.UpdateBatch(part)
						return s
					},
					fold, (*mg.Summary).Merge)
				if err != nil {
					panic(err)
				}
				fe := stats.MeasureFreq(truth, merged.Estimate)
				bound := core.MGBound(uint64(n), k)
				tb.AddRow(alpha, k, fname, fe.MaxUnder, bound, ratio(fe.MaxUnder, bound), fe.SumAbs, fe.Violations)
			}
		}
	}
	return Result{
		ID: "E01", Title: "MG mergeability", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: for every topology the realized undercount stays <= n/(k+1) and no estimate interval misses the truth (violations = 0).",
		},
	}
}

func runE02(cfg Config) Result {
	n := cfg.n()
	alphas := []float64{1.1, 1.5}
	ks := []int{17, 65}
	sites := 16
	if cfg.Quick {
		alphas = []float64{1.2}
		ks = []int{33}
	}
	tb := stats.NewTable(
		fmt.Sprintf("E02: SpaceSaving merge error and isomorphism, n=%d, %d sites", n, sites),
		"alpha", "k", "topology", "maxAbs", "under bound", "violations", "iso(SS-min == MG)")
	for _, alpha := range alphas {
		stream := gen.NewZipf(n/20, alpha, cfg.Seed+uint64(alpha*100)).Stream(n)
		truth := exact.FreqOf(stream)
		parts := gen.PartitionByHash(stream, sites, func(x core.Item) uint64 { return uint64(x) * 0x9e3779b1 })
		for _, k := range ks {
			// Isomorphism check on the unmerged whole stream, both sides
			// per item: the SS-min == MG theorem is about the unit-update
			// algorithms, and both batch paths are guarantee-equivalent,
			// not state-identical (MG defers pruning, SS collapses the
			// batch into weighted updates).
			ssWhole := spacesaving.New(k)
			mgWhole := mg.New(k - 1)
			for _, x := range stream {
				ssWhole.Update(x, 1)
				mgWhole.Update(x, 1)
			}
			iso := true
			ic, mc := ssWhole.ToMisraGries().Counters(), mgWhole.Counters()
			if len(ic) != len(mc) {
				iso = false
			} else {
				for i := range ic {
					if ic[i] != mc[i] {
						iso = false
					}
				}
			}
			for _, fname := range mergetree.Topologies {
				fold := mergetree.Fold[*spacesaving.Summary](fname, cfg.Seed+7)
				merged, err := mergetree.BuildAndMerge(parts,
					func(part []core.Item) *spacesaving.Summary {
						s := spacesaving.New(k)
						s.UpdateBatch(part)
						return s
					},
					fold, (*spacesaving.Summary).Merge)
				if err != nil {
					panic(err)
				}
				fe := stats.MeasureFreq(truth, merged.Estimate)
				tb.AddRow(alpha, k, fname, fe.MaxAbs, merged.UnderBound(), fe.Violations, fmtBool(iso))
			}
		}
	}
	return Result{
		ID: "E02", Title: "SpaceSaving mergeability", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: SS minus its minimum counter is pointwise identical to MG with k-1 counters (iso column), and merged SS estimates stay interval-correct (violations = 0).",
		},
	}
}

func runE03(cfg Config) Result {
	n := cfg.n()
	alphas := []float64{1.1, 1.3, 1.7}
	if cfg.Quick {
		alphas = []float64{1.3}
	}
	const phiInv = 100 // heavy = items above n/100
	k := 2 * phiInv    // eps = phi/2
	sites := 16
	tb := stats.NewTable(
		fmt.Sprintf("E03: heavy-hitter recall after binary-tree merge, n=%d, phi=1/%d, k=%d", n, phiInv, k),
		"alpha", "summary", "trueHH", "reported", "recall", "precision", "F1")
	for _, alpha := range alphas {
		stream := gen.NewZipf(n/20, alpha, cfg.Seed+uint64(alpha*1000)).Stream(n)
		truth := exact.FreqOf(stream)
		threshold := core.HeavyThreshold(uint64(n), phiInv)
		trueHH := truth.HeavyHitters(threshold)
		parts := gen.PartitionContiguous(stream, sites)

		mgMerged, err := mergetree.BuildAndMerge(parts,
			func(part []core.Item) *mg.Summary {
				s := mg.New(k)
				s.UpdateBatch(part)
				return s
			},
			mergetree.Binary[*mg.Summary], (*mg.Summary).Merge)
		if err != nil {
			panic(err)
		}
		ssMerged, err := mergetree.BuildAndMerge(parts,
			func(part []core.Item) *spacesaving.Summary {
				s := spacesaving.New(k)
				s.UpdateBatch(part)
				return s
			},
			mergetree.Binary[*spacesaving.Summary], (*spacesaving.Summary).MergeLowError)
		if err != nil {
			panic(err)
		}
		for _, row := range []struct {
			name     string
			reported []core.Counter
		}{
			{"mg", mgMerged.HeavyHitters(threshold)},
			{"ss", ssMerged.HeavyHitters(threshold)},
		} {
			r := stats.MeasureRecall(trueHH, row.reported)
			tb.AddRow(alpha, row.name, len(trueHH), len(row.reported), r.RecallRate(), r.PrecisionRate(), r.F1())
		}
	}
	return Result{
		ID: "E03", Title: "Heavy-hitter recall", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: recall = 1.0 always (no true heavy hitter is lost by merging); precision degrades gracefully with skew, bounded by the eps slack.",
		},
	}
}

func runE04(cfg Config) Result {
	// Part 1: the worked examples of the supplied text, verbatim.
	golden := stats.NewTable("E04a: worked examples (supplied text §5), total merge error E_T",
		"summary", "algorithm", "E_T", "paper says")
	{
		s1, _ := mg.FromCounters(4, 70, 0, []core.Counter{{Item: 2, Count: 4}, {Item: 3, Count: 11}, {Item: 4, Count: 22}, {Item: 5, Count: 33}})
		s2, _ := mg.FromCounters(4, 100, 0, []core.Counter{{Item: 7, Count: 10}, {Item: 8, Count: 20}, {Item: 9, Count: 30}, {Item: 10, Count: 40}})
		combined := mg.CombinedCounters(s1, s2)
		pods, low := s1.Clone(), s1.Clone()
		if err := errors.Join(pods.Merge(s2), low.MergeLowError(s2)); err != nil {
			panic(err)
		}
		golden.AddRow("frequent", "pods12-prune", mg.TotalMergeError(combined, pods), 80)
		golden.AddRow("frequent", "low-error", mg.TotalMergeError(combined, low), 55)
	}
	{
		mk := func(items []core.Item, counts []uint64) *spacesaving.Summary {
			states := make([]spacesaving.CounterState, len(items))
			var n uint64
			for i := range items {
				states[i] = spacesaving.CounterState{Item: items[i], Count: counts[i]}
				n += counts[i]
			}
			s, err := spacesaving.FromStates(5, n, 0, states)
			if err != nil {
				panic(err)
			}
			return s
		}
		s1 := mk([]core.Item{1, 2, 3, 4, 5}, []uint64{5, 7, 12, 14, 18})
		s2 := mk([]core.Item{6, 7, 8, 9, 10}, []uint64{4, 16, 17, 19, 23})
		combined := spacesaving.CombinedCounters(s1, s2)
		pods, low := s1.Clone(), s1.Clone()
		if err := errors.Join(pods.Merge(s2), low.MergeLowError(s2)); err != nil {
			panic(err)
		}
		golden.AddRow("spacesaving", "pods12-prune", spacesaving.TotalMergeError(combined, pods), 48)
		golden.AddRow("spacesaving", "low-error", spacesaving.TotalMergeError(combined, low), 18)
	}

	// Part 2: the same comparison on synthetic streams — total error
	// accumulated over a chain of pairwise merges of disjoint-support
	// summaries (the adversarial case for merging).
	n := cfg.n()
	alphas := []float64{1.1, 1.5, 2.0}
	ks := []int{16, 64, 256}
	sites := 16
	if cfg.Quick {
		alphas = []float64{1.3}
		ks = []int{32}
	}
	sweep := stats.NewTable(
		fmt.Sprintf("E04b: cumulative total merge error over a %d-site merge chain, hash-partitioned zipf, n=%d", sites, n),
		"alpha", "k", "summary", "E_T pods12", "E_T low-error", "low/pods")
	for _, alpha := range alphas {
		stream := gen.NewZipf(n/20, alpha, cfg.Seed+uint64(alpha*10)).Stream(n)
		parts := gen.PartitionByHash(stream, sites, func(x core.Item) uint64 { return uint64(x) * 0x85ebca6b })
		for _, k := range ks {
			// Misra–Gries chain.
			var podsTE, lowTE uint64
			buildMG := func(part []core.Item) *mg.Summary {
				s := mg.New(k)
				s.UpdateBatch(part)
				return s
			}
			accP, accL := buildMG(parts[0]), buildMG(parts[0])
			for _, p := range parts[1:] {
				nxt := buildMG(p)
				podsTE += chainStepMG(accP, nxt, (*mg.Summary).Merge)
				lowTE += chainStepMG(accL, nxt, (*mg.Summary).MergeLowError)
			}
			sweep.AddRow(alpha, k, "mg", podsTE, lowTE, ratio(lowTE, podsTE))

			// SpaceSaving chain.
			podsTE, lowTE = 0, 0
			buildSS := func(part []core.Item) *spacesaving.Summary {
				s := spacesaving.New(k)
				s.UpdateBatch(part)
				return s
			}
			accPs, accLs := buildSS(parts[0]), buildSS(parts[0])
			for _, p := range parts[1:] {
				nxt := buildSS(p)
				podsTE += chainStepSS(accPs, nxt, (*spacesaving.Summary).Merge)
				lowTE += chainStepSS(accLs, nxt, (*spacesaving.Summary).MergeLowError)
			}
			sweep.AddRow(alpha, k, "ss", podsTE, lowTE, ratio(lowTE, podsTE))
		}
	}
	return Result{
		ID: "E04", Title: "Total merge error: PODS'12 vs low-error",
		Tables: []*stats.Table{golden, sweep},
		Notes: []string{
			"Claim (supplied text Lemmas 4.3/4.6): the low-error merge's E_T never exceeds the PODS'12 prune's; the worked examples reproduce exactly (80 vs 55, 48 vs 18).",
			"Claim: on skewed streams the ratio is well below 1 and shrinks with k.",
		},
	}
}

func chainStepMG(acc, next *mg.Summary, merge func(*mg.Summary, *mg.Summary) error) uint64 {
	combined := mg.CombinedCounters(acc, next)
	if err := merge(acc, next); err != nil {
		panic(err)
	}
	return mg.TotalMergeError(combined, acc)
}

func chainStepSS(acc, next *spacesaving.Summary, merge func(*spacesaving.Summary, *spacesaving.Summary) error) uint64 {
	combined := spacesaving.CombinedCounters(acc, next)
	if err := merge(acc, next); err != nil {
		panic(err)
	}
	return spacesaving.TotalMergeError(combined, acc)
}
