package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/countsketch"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/gk"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/randquant"
	"repro/internal/sampling"
	"repro/internal/spacesaving"
	"repro/internal/stats"
)

func init() {
	register("E12", "Mergeable bottom-k sampling: accuracy vs. the n/sqrt(k) law (PODS'12 §3.3 primitive)", runE12)
	register("E13", "Linear-sketch baselines: Count-Min / Count-Sketch vs. MG at equal space", runE13)
	register("E14", "Throughput: updates/s and merges/s for every summary", runE14)
}

func runE12(cfg Config) Result {
	n := cfg.n()
	ks := []int{256, 1024, 4096}
	sites := 16
	if cfg.Quick {
		ks = []int{1024}
	}
	vals := gen.NormalValues(n, cfg.Seed+4)
	oracle := exact.QuantilesOf(vals)
	tb := stats.NewTable(
		fmt.Sprintf("E12: bottom-k sample rank error, n=%d, %d sites, binary tree", n, sites),
		"k", "mode", "maxRelErr", "1/sqrt(k) law", "err*sqrt(k)")
	for _, k := range ks {
		stream := sampling.NewBottomK(k, cfg.Seed+5)
		for _, v := range vals {
			stream.Update(v)
		}
		qe := stats.MeasureQuantiles(oracle, stream, stats.DefaultPhis)
		tb.AddRow(k, "stream", qe.MaxRel, 1/math.Sqrt(float64(k)), qe.MaxRel*math.Sqrt(float64(k)))

		parts := gen.PartitionRandomSizes(vals, sites, cfg.Seed+6)
		seed := cfg.Seed + 50
		merged, err := mergetree.BuildAndMerge(parts,
			func(part []float64) *sampling.BottomK {
				seed++
				s := sampling.NewBottomK(k, seed)
				for _, v := range part {
					s.Update(v)
				}
				return s
			},
			mergetree.Binary[*sampling.BottomK], (*sampling.BottomK).Merge)
		if err != nil {
			panic(err)
		}
		qe = stats.MeasureQuantiles(oracle, merged, stats.DefaultPhis)
		tb.AddRow(k, "merged", qe.MaxRel, 1/math.Sqrt(float64(k)), qe.MaxRel*math.Sqrt(float64(k)))
	}
	return Result{
		ID: "E12", Title: "Bottom-k sampling", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: rank error scales as 1/sqrt(k) (err*sqrt(k) roughly constant) and merging costs nothing (merged ≈ stream rows).",
		},
	}
}

func runE13(cfg Config) Result {
	n := cfg.n()
	alphas := []float64{1.1, 1.5}
	if cfg.Quick {
		alphas = []float64{1.3}
	}
	// Equal space: MG with k counters stores ~2k words; CM/CS with
	// width w and depth d store w*d words. Compare at w*d == 2k.
	k := 256
	depth := 4
	width := 2 * k / depth
	tb := stats.NewTable(
		fmt.Sprintf("E13: frequency error at equal space (~%d words), n=%d, zipf", 2*k, n),
		"alpha", "summary", "maxAbsErr", "meanAbsErr(top100)", "violations")
	for _, alpha := range alphas {
		z := gen.NewZipf(n/20, alpha, cfg.Seed+uint64(alpha*100))
		stream := z.Stream(n)
		truth := exact.FreqOf(stream)
		top := truth.Counters()
		if len(top) > 100 {
			top = top[:100]
		}
		mgS := mg.New(k)
		ssS := spacesaving.New(k)
		cmS := countmin.New(width, depth, cfg.Seed)
		csS := countsketch.New(width, depth, cfg.Seed)
		for _, x := range stream {
			mgS.Update(x, 1)
			ssS.Update(x, 1)
			cmS.Update(x, 1)
			csS.Update(x, 1)
		}
		for _, row := range []struct {
			name string
			est  func(core.Item) core.Estimate
		}{
			{"mg", mgS.Estimate},
			{"spacesaving", ssS.Estimate},
			{"countmin", cmS.Estimate},
			{"countsketch", csS.Estimate},
		} {
			var worst, sum uint64
			violations := 0
			for _, c := range top {
				e := row.est(c.Item)
				var d uint64
				if e.Value >= c.Count {
					d = e.Value - c.Count
				} else {
					d = c.Count - e.Value
				}
				sum += d
				if d > worst {
					worst = d
				}
				if !e.Contains(c.Count) {
					violations++
				}
			}
			tb.AddRow(alpha, row.name, worst, float64(sum)/float64(len(top)), violations)
		}
	}
	return Result{
		ID: "E13", Title: "Linear-sketch baselines", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: at equal space the counter summaries (mg/ss) dominate Count-Min on skewed streams for heavy items; Count-Sketch sits between; all intervals remain sound (violations = 0).",
		},
	}
}

func runE14(cfg Config) Result {
	n := cfg.n()
	if cfg.Quick {
		n = cfg.n() / 4
	}
	stream := gen.NewZipf(n/20, 1.2, cfg.Seed+8).Stream(n)
	vals := gen.UniformValues(n, cfg.Seed+9)

	tb := stats.NewTable(
		fmt.Sprintf("E14: single-thread throughput, n=%d (also available as go test -bench)", n),
		"summary", "updates/s (millions)", "merges/s")

	timeUpdates := func(update func()) float64 {
		start := time.Now()
		update()
		el := time.Since(start).Seconds()
		return float64(n) / el / 1e6
	}

	type mergeable struct {
		name    string
		updates func()
		merges  func() float64 // merges per second
	}

	mkMG := func() *mg.Summary {
		s := mg.New(256)
		for _, x := range stream {
			s.Update(x, 1)
		}
		return s
	}
	mkSS := func() *spacesaving.Summary {
		s := spacesaving.New(256)
		for _, x := range stream {
			s.Update(x, 1)
		}
		return s
	}
	mkRQ := func() *randquant.Summary {
		s := randquant.NewEpsilon(0.01, cfg.Seed)
		for _, v := range vals {
			s.Update(v)
		}
		return s
	}
	mkGK := func() *gk.Summary {
		s := gk.New(0.01)
		for _, v := range vals {
			s.Update(v)
		}
		return s
	}

	rows := []mergeable{
		{
			name:    "mg(k=256)",
			updates: func() { mkMG() },
			merges: func() float64 {
				a, b := mkMG(), mkMG()
				const reps = 200
				start := time.Now()
				for i := 0; i < reps; i++ {
					c := a.Clone()
					if err := c.Merge(b); err != nil {
						panic(err)
					}
				}
				return reps / time.Since(start).Seconds()
			},
		},
		{
			name:    "spacesaving(k=256)",
			updates: func() { mkSS() },
			merges: func() float64 {
				a, b := mkSS(), mkSS()
				const reps = 200
				start := time.Now()
				for i := 0; i < reps; i++ {
					c := a.Clone()
					if err := c.MergeLowError(b); err != nil {
						panic(err)
					}
				}
				return reps / time.Since(start).Seconds()
			},
		},
		{
			name:    "gk(eps=0.01)",
			updates: func() { mkGK() },
			merges: func() float64 {
				a, b := mkGK(), mkGK()
				const reps = 50
				start := time.Now()
				for i := 0; i < reps; i++ {
					c := a.Clone()
					if err := c.Merge(b); err != nil {
						panic(err)
					}
				}
				return reps / time.Since(start).Seconds()
			},
		},
		{
			name:    "randquant(eps=0.01)",
			updates: func() { mkRQ() },
			merges: func() float64 {
				a, b := mkRQ(), mkRQ()
				const reps = 50
				start := time.Now()
				for i := 0; i < reps; i++ {
					c := a.Clone()
					if err := c.Merge(b); err != nil {
						panic(err)
					}
				}
				return reps / time.Since(start).Seconds()
			},
		},
		{
			name: "countmin(512x4)",
			updates: func() {
				s := countmin.New(512, 4, cfg.Seed)
				for _, x := range stream {
					s.Update(x, 1)
				}
			},
			merges: func() float64 {
				a := countmin.New(512, 4, cfg.Seed)
				b := countmin.New(512, 4, cfg.Seed)
				const reps = 2000
				start := time.Now()
				for i := 0; i < reps; i++ {
					if err := a.Merge(b); err != nil {
						panic(err)
					}
				}
				return reps / time.Since(start).Seconds()
			},
		},
		{
			name: "bottomk(k=4096)",
			updates: func() {
				s := sampling.NewBottomK(4096, cfg.Seed)
				for _, v := range vals {
					s.Update(v)
				}
			},
			merges: func() float64 {
				mk := func(seed uint64) *sampling.BottomK {
					s := sampling.NewBottomK(4096, seed)
					for _, v := range vals[:n/4] {
						s.Update(v)
					}
					return s
				}
				a, b := mk(1), mk(2)
				const reps = 500
				start := time.Now()
				for i := 0; i < reps; i++ {
					c := a.Clone()
					if err := c.Merge(b); err != nil {
						panic(err)
					}
				}
				return reps / time.Since(start).Seconds()
			},
		},
	}
	for _, r := range rows {
		tb.AddRow(r.name, timeUpdates(r.updates), r.merges())
	}
	return Result{
		ID: "E14", Title: "Throughput", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: all summaries sustain millions of updates/s single-threaded; merges are microsecond-scale (O(k) or O(size) work).",
		},
	}
}
