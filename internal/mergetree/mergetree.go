// Package mergetree orchestrates merges of summaries over different
// aggregation topologies. The PODS'12 mergeability definition demands
// that a summary's guarantees hold for *every* merge order; these
// helpers are how the experiments and tests exercise that universal
// quantifier: the same partition list is folded sequentially (one-way
// streaming), as a balanced binary tree (MapReduce-style), in a random
// order (ad-hoc gossip), and concurrently.
//
// All helpers are generic over the summary type; the merge callback
// folds src into dst (dst.Merge(src) for every summary in this
// repository). The parts slice is consumed: callers must not reuse the
// summaries afterwards.
package mergetree

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
)

// MergeFunc folds src into dst.
type MergeFunc[S any] func(dst, src S) error

// ErrNoParts is returned when an empty partition list is folded.
var ErrNoParts = errors.New("mergetree: no summaries to merge")

// Sequential folds parts left to right: ((p0 ⊎ p1) ⊎ p2) ⊎ … — the
// one-way/streaming topology (also the star topology from the
// aggregator's point of view).
func Sequential[S any](parts []S, merge MergeFunc[S]) (S, error) {
	var zero S
	if len(parts) == 0 {
		return zero, ErrNoParts
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		if err := merge(acc, p); err != nil {
			return zero, err
		}
	}
	return acc, nil
}

// Binary folds parts as a balanced binary tree: pairs are merged,
// then pairs of results, and so on — the MapReduce/combiner topology.
func Binary[S any](parts []S, merge MergeFunc[S]) (S, error) {
	var zero S
	if len(parts) == 0 {
		return zero, ErrNoParts
	}
	for len(parts) > 1 {
		next := parts[:0]
		for i := 0; i+1 < len(parts); i += 2 {
			if err := merge(parts[i], parts[i+1]); err != nil {
				return zero, err
			}
			next = append(next, parts[i])
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	return parts[0], nil
}

// Random repeatedly merges two uniformly chosen summaries until one
// remains — the adversarial "arbitrary order" topology of the
// mergeability definition, deterministic per seed.
func Random[S any](parts []S, seed uint64, merge MergeFunc[S]) (S, error) {
	var zero S
	if len(parts) == 0 {
		return zero, ErrNoParts
	}
	rng := gen.NewRNG(seed)
	live := append([]S(nil), parts...)
	for len(live) > 1 {
		i := rng.Intn(len(live))
		j := rng.Intn(len(live) - 1)
		if j >= i {
			j++
		}
		if err := merge(live[i], live[j]); err != nil {
			return zero, err
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return live[0], nil
}

// Parallel folds parts with up to workers concurrent binary merges —
// the topology a multi-core aggregator actually runs. The fold is a
// lock-free pairing reduction: summaries live in a slice and are
// combined round by round as a balanced binary tree (pair (2i, 2i+1)
// merges into slot 2i), with workers claiming pair indices off a
// shared atomic counter. No channels, no mutex on the happy path, and
// every summary is owned by exactly one goroutine at a time, so the
// summaries themselves need no locking. The tree shape keeps merge
// cost balanced: after r rounds every survivor has absorbed ~2^r
// inputs, exactly like Binary but with the pairs of each round
// executing concurrently.
//
// The first merge error aborts the fold: workers stop claiming pairs,
// the current round drains, and the error is returned. A failed merge
// can never strand a worker — there is no queue to block on, only the
// claim counter, which monotonically runs off the end of the round.
func Parallel[S any](parts []S, workers int, merge MergeFunc[S]) (S, error) {
	var zero S
	n := len(parts)
	if n == 0 {
		return zero, ErrNoParts
	}
	if workers < 1 {
		workers = 1
	}
	buf := append(make([]S, 0, n), parts...)

	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	record := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}

	for n > 1 {
		pairs := n / 2
		w := workers
		if w > pairs {
			w = pairs
		}
		if w == 1 {
			// Small tail rounds run inline: no goroutine or barrier
			// cost when there is nothing left to parallelize.
			for i := 0; i < pairs && !failed.Load(); i++ {
				if err := merge(buf[2*i], buf[2*i+1]); err != nil {
					record(err)
				}
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for k := 0; k < w; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mergeRound(buf, pairs, &next, &failed, merge, record)
				}()
			}
			wg.Wait()
		}
		if failed.Load() {
			return zero, firstErr
		}
		// Compact the round's winners to the front; an odd leftover
		// survives to the next round untouched.
		for i := 1; i < pairs; i++ {
			buf[i] = buf[2*i]
		}
		if n%2 == 1 {
			buf[pairs] = buf[n-1]
			n = pairs + 1
		} else {
			n = pairs
		}
	}
	return buf[0], nil
}

// mergeRound is one round of the pairing reduction: claim pair index i
// from next, merge buf[2i+1] into buf[2i], repeat until the counter
// runs past pairs or a failure is flagged. Claiming is a single atomic
// add; the slots of a claimed pair are touched by exactly one worker,
// so the round needs no further synchronization.
func mergeRound[S any](buf []S, pairs int, next *atomic.Int64, failed *atomic.Bool, merge MergeFunc[S], record func(error)) {
	for !failed.Load() {
		i := next.Add(1) - 1
		if i >= int64(pairs) {
			return
		}
		if err := merge(buf[2*i], buf[2*i+1]); err != nil {
			record(err)
			return
		}
	}
}

// BuildAndMerge constructs one summary per partition with build, then
// folds them with the chosen topology. It is the common shape of every
// distributed experiment in this repository.
func BuildAndMerge[S any, T any](
	parts [][]T,
	build func(part []T) S,
	fold func(parts []S, merge MergeFunc[S]) (S, error),
	merge MergeFunc[S],
) (S, error) {
	summaries := make([]S, len(parts))
	for i, p := range parts {
		summaries[i] = build(p)
	}
	return fold(summaries, merge)
}
