package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/stats"
	"repro/internal/window"
)

func init() {
	register("E17", "Sliding-window heavy hitters from tumbling-epoch merges (mergeability extension)", runE17)
}

func runE17(cfg Config) Result {
	epochs := 12
	retain := 6
	perEpoch := cfg.n() / epochs
	k := 64
	lasts := []int{1, 3, 6}
	if cfg.Quick {
		lasts = []int{3}
	}
	tb := stats.NewTable(
		fmt.Sprintf("E17: window query over last L of %d epochs (%d items each), k=%d", epochs, perEpoch, k),
		"L", "windowN", "maxUnder", "bound n/(k+1)", "ratio", "violations")

	w := window.New(retain, func(uint64) *mg.Summary { return mg.New(k) })
	streams := make([][]core.Item, 0, epochs)
	for e := 0; e < epochs; e++ {
		if e > 0 {
			if err := w.Advance(); err != nil {
				panic(err)
			}
		}
		// The item distribution drifts across epochs: heavy items of
		// epoch e are light in epoch e+3, so windows genuinely differ.
		stream := gen.NewZipf(perEpoch/10, 1.4, cfg.Seed+uint64(e%3)*7+uint64(e)).Stream(perEpoch)
		streams = append(streams, stream)
		w.Update(func(cur *mg.Summary) {
			for _, x := range stream {
				cur.Update(x, 1)
			}
		})
	}
	for _, last := range lasts {
		q, err := w.Query(last)
		if err != nil {
			panic(err)
		}
		truth := exact.NewFreqTable()
		for _, s := range streams[epochs-last:] {
			for _, x := range s {
				truth.Add(x, 1)
			}
		}
		fe := stats.MeasureFreq(truth, q.Estimate)
		bound := core.MGBound(q.N(), k)
		tb.AddRow(last, q.N(), fe.MaxUnder, bound, ratio(fe.MaxUnder, bound), fe.Violations)
	}
	return Result{
		ID: "E17", Title: "Sliding windows via merging", Tables: []*stats.Table{tb},
		Notes: []string{
			"Claim: a window query assembled by merging the window's epoch summaries satisfies the single-summary bound over exactly the window's stream (violations = 0, ratio <= 1) — sliding windows are a corollary of mergeability.",
		},
	}
}
