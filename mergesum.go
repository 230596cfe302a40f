// Package mergesum is the public API of this repository: a Go library
// of mergeable summaries reproducing Agarwal, Cormode, Huang, Phillips,
// Wei and Yi, "Mergeable Summaries" (PODS 2012), plus the
// low-total-error merge algorithms of the follow-up by Cafaro, Tempesta
// and Pulimeno.
//
// A summary S(D, ε) is *mergeable* when merging S(D1, ε) and S(D2, ε)
// yields S(D1 ⊎ D2, ε) — same size bound, same error parameter — for
// arbitrary merge trees. That property turns every summary below into a
// drop-in distributed aggregator: build one summary per shard, merge in
// any topology, query the root as if it had seen all the data.
//
// Summary families (each constructor returns a concrete type with
// Update / Estimate-or-Quantile / Merge / MarshalBinary):
//
//   - NewMisraGries, NewMisraGriesEpsilon — deterministic heavy
//     hitters, never overestimates, error ≤ εn under any merging.
//   - NewSpaceSaving, NewSpaceSavingEpsilon — deterministic heavy
//     hitters, never underestimates on streams, isomorphic to MG.
//     Both carry two merge algorithms: Merge (PODS'12) and
//     MergeLowError (the follow-up's closed-form, smaller total error).
//   - NewGK — deterministic quantiles, one-way mergeable.
//   - NewQuantile, NewQuantileHybrid — the paper's randomized fully
//     mergeable quantile summary, with every level kept or with a
//     level budget that makes its size independent of n.
//   - NewCountMin, NewCountSketch — linear sketches (trivially
//     mergeable baselines).
//   - NewBottomK — mergeable uniform sample.
//   - NewRangeCounter — mergeable 2-D ε-approximation for rectangles.
//   - NewKernel — mergeable ε-kernel for directional width.
//
// Merge topology helpers (MergeSequential, MergeBinary, MergeParallel)
// fold a slice of summaries with any of the summaries' merge methods.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction results; `go run ./cmd/experiments` regenerates them.
package mergesum

import (
	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/countsketch"
	"repro/internal/distinct"
	"repro/internal/epsapprox"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/gk"
	"repro/internal/kernel"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/qdigest"
	"repro/internal/randquant"
	"repro/internal/sampling"
	"repro/internal/shard"
	"repro/internal/spacesaving"
	"repro/internal/topk"
	"repro/internal/window"
)

// Core vocabulary.
type (
	// Item identifies an element counted by the frequency summaries.
	Item = core.Item
	// Counter is an (item, count) pair.
	Counter = core.Counter
	// Estimate is a point-query answer with a guaranteed interval.
	Estimate = core.Estimate
	// Point is a planar point for the geometric summaries.
	Point = gen.Point
	// Rect is an axis-aligned rectangle query.
	Rect = exact.Rect
)

// Summary types.
type (
	// MisraGries is the Misra–Gries (Frequent) heavy-hitter summary.
	MisraGries = mg.Summary
	// SpaceSaving is the SpaceSaving heavy-hitter summary.
	SpaceSaving = spacesaving.Summary
	// GK is the Greenwald–Khanna quantile summary.
	GK = gk.Summary
	// Quantile is the randomized fully mergeable quantile summary, in
	// either of its modes (see NewQuantile and NewQuantileHybrid).
	Quantile = randquant.Summary
	// CountMin is the Count-Min sketch.
	CountMin = countmin.Sketch
	// CountSketch is the Count-Sketch.
	CountSketch = countsketch.Sketch
	// BottomK is the mergeable uniform sample.
	BottomK = sampling.BottomK
	// RangeCounter is the mergeable 2-D range-counting summary.
	RangeCounter = epsapprox.Summary
	// Kernel is the mergeable directional-width kernel.
	Kernel = kernel.Kernel
	// KMV is the k-minimum-values distinct-count summary.
	KMV = distinct.KMV
	// HLL is the HyperLogLog distinct-count summary.
	HLL = distinct.HLL
	// TopK is the Count-Min-backed top-k heavy-hitter tracker.
	TopK = topk.Tracker
	// QDigest is the fixed-universe deterministic mergeable quantile
	// summary (the paper's §3 comparison point).
	QDigest = qdigest.Digest
)

// Sharded fans concurrent updates over per-shard summaries; snapshots
// merge the shards, which is sound exactly because the summaries are
// mergeable.
type Sharded[S any] = shard.Sharded[S]

// NewSharded returns a Sharded with p shards built by mk.
func NewSharded[S any](p int, mk func(shard int) S) *Sharded[S] { return shard.New(p, mk) }

// Windowed turns any summary type of this package into a
// sliding-window summary over tumbling epochs: Update feeds the live
// epoch, Advance seals it, Query(last) merges the most recent epochs.
// It is a typed view over the roll-up plane summaryd serves windows
// from, safe for concurrent use, with nothing to close.
type Windowed[S any] = window.Windowed[S]

// NewWindowed returns a Windowed retaining the most recent capacity
// epochs (the live one included), each started by mk. S must be one of
// this package's summary pointer types.
func NewWindowed[S any](capacity int, mk func(epoch uint64) S) *Windowed[S] {
	return window.New(capacity, mk)
}

// Frequency-summary constructors.

// NewMisraGries returns an empty Misra–Gries summary with k counters
// (frequency error at most n/(k+1)).
func NewMisraGries(k int) *MisraGries { return mg.New(k) }

// NewMisraGriesEpsilon sizes a Misra–Gries summary for error eps*n.
func NewMisraGriesEpsilon(eps float64) *MisraGries { return mg.NewEpsilon(eps) }

// NewSpaceSaving returns an empty SpaceSaving summary with k counters
// (overestimation at most n/k).
func NewSpaceSaving(k int) *SpaceSaving { return spacesaving.New(k) }

// NewSpaceSavingEpsilon sizes a SpaceSaving summary for error eps*n.
func NewSpaceSavingEpsilon(eps float64) *SpaceSaving { return spacesaving.NewEpsilon(eps) }

// NewCountMin returns a Count-Min sketch with the given geometry; use
// the same seed on every site that will merge.
func NewCountMin(width, depth int, seed uint64) *CountMin { return countmin.New(width, depth, seed) }

// NewCountSketch returns a Count-Sketch with the given geometry.
func NewCountSketch(width, depth int, seed uint64) *CountSketch {
	return countsketch.New(width, depth, seed)
}

// Quantile-summary constructors.

// NewGK returns a Greenwald–Khanna summary with rank error eps*n.
func NewGK(eps float64) *GK { return gk.New(eps) }

// NewQuantile returns the randomized fully mergeable quantile summary
// sized for rank error eps*n (w.h.p.) under arbitrary merging.
func NewQuantile(eps float64, seed uint64) *Quantile { return randquant.NewEpsilon(eps, seed) }

// NewQuantileHybrid returns a Quantile in bounded mode: low levels are
// replaced by sampling, so its size is independent of the stream
// length. It merges only with other bounded summaries of the same eps.
func NewQuantileHybrid(eps float64, seed uint64) *Quantile {
	return randquant.NewHybridEpsilon(eps, seed)
}

// NewBottomK returns a mergeable uniform sample of up to k values.
func NewBottomK(k int, seed uint64) *BottomK { return sampling.NewBottomK(k, seed) }

// NewQDigest returns a deterministic mergeable quantile summary over
// the integer universe [0, 2^logU) with rank error eps*n.
func NewQDigest(logU uint8, eps float64) *QDigest { return qdigest.NewEpsilon(logU, eps) }

// Geometric constructors.

// NewRangeCounter returns a mergeable 2-D range-counting summary with
// count error ~eps*n over the given bounding box.
func NewRangeCounter(eps float64, box Rect, seed uint64) *RangeCounter {
	return epsapprox.NewEpsilon(eps, box, seed)
}

// NewKernel returns a mergeable directional-width kernel with relative
// width error eps for inputs of bounded aspect ratio.
func NewKernel(eps float64) *Kernel { return kernel.NewEpsilon(eps) }

// Distinct-count constructors.

// NewKMV returns a k-minimum-values distinct counter (relative
// standard error ~1/sqrt(k-2)); use the same seed on every site.
func NewKMV(k int, seed uint64) *KMV { return distinct.NewKMV(k, seed) }

// NewHLL returns a HyperLogLog distinct counter with 2^p registers
// (relative standard error ~1.04/sqrt(2^p)); use the same seed on
// every site.
func NewHLL(p uint8, seed uint64) *HLL { return distinct.NewHLL(p, seed) }

// NewTopK returns a Count-Min-backed top-k tracker: a mergeable
// heavy-hitter directory over a sketch with the given geometry.
func NewTopK(k, width, depth int, seed uint64) *TopK { return topk.New(k, width, depth, seed) }

// Merge topology helpers (see the mergeability definition: the result
// is within guarantee for every one of these).

// MergeFunc folds src into dst, as every summary's Merge method does.
type MergeFunc[S any] = mergetree.MergeFunc[S]

// MergeSequential folds parts left-to-right (one-way/streaming order).
func MergeSequential[S any](parts []S, merge MergeFunc[S]) (S, error) {
	return mergetree.Sequential(parts, merge)
}

// MergeBinary folds parts as a balanced binary tree.
func MergeBinary[S any](parts []S, merge MergeFunc[S]) (S, error) {
	return mergetree.Binary(parts, merge)
}

// MergeParallel folds parts with the given number of concurrent
// workers.
func MergeParallel[S any](parts []S, workers int, merge MergeFunc[S]) (S, error) {
	return mergetree.Parallel(parts, workers, merge)
}

// Bounds re-exported from the analysis.

// MGBound returns the Misra–Gries error bound n/(k+1).
func MGBound(n uint64, k int) uint64 { return core.MGBound(n, k) }

// SSBound returns the SpaceSaving error bound n/k.
func SSBound(n uint64, k int) uint64 { return core.SSBound(n, k) }

// HeavyThreshold returns floor(n/k)+1, the k-majority threshold.
func HeavyThreshold(n uint64, k int) uint64 { return core.HeavyThreshold(n, k) }
