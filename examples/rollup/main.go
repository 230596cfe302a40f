// Rollup demonstrates sliding-window monitoring built from tumbling
// epochs: a service ingests a skewed event stream whose hot keys drift
// over time; every "minute" the window advances, and dashboards ask
// for the heavy hitters and the latency p99 over the last 1, 5 and 15
// minutes. Each window answer is assembled by merging the retained
// epochs' sealed summaries with the live one — no per-window state is
// ever maintained — and is verified against exact computation over the
// same window.
package main

import (
	"errors"
	"fmt"

	mergesum "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

const (
	minutes   = 30
	retain    = 15
	perMinute = 20000
	k         = 128
)

func main() {
	freqW := mergesum.NewWindowed(retain, func(uint64) *mergesum.MisraGries {
		return mergesum.NewMisraGries(k)
	})
	latW := mergesum.NewWindowed(retain, func(e uint64) *mergesum.Quantile {
		return mergesum.NewQuantile(0.01, e)
	})

	// Keep raw epochs for verification only.
	keyEpochs := make([][]mergesum.Item, 0, minutes)
	latEpochs := make([][]float64, 0, minutes)

	for m := 0; m < minutes; m++ {
		if m > 0 {
			if err := errors.Join(freqW.Advance(), latW.Advance()); err != nil {
				panic(err)
			}
		}
		// Hot keys drift: the Zipf permutation changes every 10 min.
		z := gen.NewZipf(5000, 1.4, uint64(m/10)+1)
		keys := z.Stream(perMinute)
		// Latency regime shifts at minute 20 (a deploy).
		mu := 1.0
		if m >= 20 {
			mu = 1.6
		}
		lats := gen.LogNormalValues(perMinute, mu, 0.5, uint64(m)+100)

		freqW.Update(func(s *mergesum.MisraGries) { s.UpdateBatch(keys) })
		latW.Update(func(s *mergesum.Quantile) { s.UpdateBatch(lats) })
		keyEpochs = append(keyEpochs, keys)
		latEpochs = append(latEpochs, lats)
	}

	fmt.Printf("after %d minutes (%d events/min, retaining %d epochs):\n\n", minutes, perMinute, retain)
	fmt.Printf("%-8s %-14s %-22s %-12s %-12s\n", "window", "top key", "estimate [interval]", "p99 est", "p99 exact")
	for _, lastN := range []int{1, 5, 15} {
		fq, err := freqW.Query(lastN)
		if err != nil {
			panic(err)
		}
		lq, err := latW.Query(lastN)
		if err != nil {
			panic(err)
		}

		// Exact over the same window.
		truth := exact.NewFreqTable()
		var lats []float64
		for i := minutes - lastN; i < minutes; i++ {
			for _, x := range keyEpochs[i] {
				truth.Add(x, 1)
			}
			lats = append(lats, latEpochs[i]...)
		}
		top := fq.Counters()[fq.Len()-1] // largest counter
		est := fq.Estimate(top.Item)
		if !est.Contains(truth.Count(top.Item)) {
			panic("window interval missed the exact count")
		}
		fmt.Printf("%-8s key=%-10d %-22s %-12.3f %-12.3f\n",
			fmt.Sprintf("%dm", lastN), uint64(top.Item), est.String(),
			lq.Quantile(0.99), exact.QuantilesOf(lats).Quantile(0.99))
	}

	// The 15-minute window spans the deploy at minute 20, so its p99
	// sits between the 1-minute (all-new-regime) value and the old
	// regime's — visible above.
	_ = core.Item(0)
}
