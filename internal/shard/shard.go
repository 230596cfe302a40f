// Package shard provides a concurrent ingestion wrapper around any
// mergeable summary: updates are routed to per-shard summaries guarded
// by per-shard locks, and queries merge a snapshot of all shards. This
// is the intra-process mirror of the paper's distributed story — the
// reason it works at all is mergeability: a snapshot merged from P
// shard summaries carries the same guarantee as one summary that saw
// every update.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mergetree"
)

// Sharded fans updates out over p summaries of type S. All methods are
// safe for concurrent use.
type Sharded[S any] struct {
	mus []sync.Mutex
	// shards[i] may only be touched while holding mus[i]; the slice
	// header itself is immutable after New. guarded by mus
	shards []S
	// parts pools per-shard index buffers for UpdateBatch so steady-
	// state batch ingestion allocates nothing. sync.Pool synchronizes
	// internally.
	parts sync.Pool
}

// New returns a Sharded with p shards built by mk (called once per
// shard index). The receiver is unpublished until New returns, so no
// locks are needed while filling the shards.
func New[S any](p int, mk func(shard int) S) *Sharded[S] {
	if p < 1 {
		panic("shard: need at least one shard")
	}
	s := &Sharded[S]{
		mus:    make([]sync.Mutex, p),
		shards: make([]S, p),
	}
	for i := range s.shards {
		s.shards[i] = mk(i)
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded[S]) Shards() int { return len(s.shards) }

// Update locks the shard selected by key and applies f to its summary.
// Callers route related keys to the same shard by hashing; unrelated
// keys spread across shards and proceed in parallel.
func (s *Sharded[S]) Update(key uint64, f func(S)) {
	i := int(key % uint64(len(s.shards)))
	s.mus[i].Lock()
	f(s.shards[i])
	s.mus[i].Unlock()
}

// UpdateAny applies f to an arbitrary shard chosen by the caller-
// provided token (e.g. a goroutine-local counter); use when the
// summary accepts any routing, such as quantile summaries.
func (s *Sharded[S]) UpdateAny(token uint64, f func(S)) {
	s.Update(token, f)
}

// UpdateBatch ingests items [0, n) in one pass: it partitions the
// indices by shard using key(i), then for every non-empty shard takes
// that shard's lock once and calls apply with the shard's summary and
// the indices routed to it (in ascending order). This turns n lock
// acquisitions into at most Shards() per batch, which is where the
// batch ingestion layer wins under contention; apply should feed the
// indexed items to the summary's own batch method.
//
// The partition buffers are pooled, so steady-state batches allocate
// nothing beyond what apply does. The idxs slice passed to apply is
// only valid during the call.
func (s *Sharded[S]) UpdateBatch(n int, key func(i int) uint64, apply func(shard S, idxs []int)) {
	if n <= 0 {
		return
	}
	p := uint64(len(s.shards))
	var parts [][]int
	if v := s.parts.Get(); v != nil {
		parts = *(v.(*[][]int))
	} else {
		parts = make([][]int, p)
	}
	for i := 0; i < n; i++ {
		b := key(i) % p
		parts[b] = append(parts[b], i)
	}
	for b := range parts {
		if len(parts[b]) == 0 {
			continue
		}
		s.mus[b].Lock()
		apply(s.shards[b], parts[b])
		s.mus[b].Unlock()
		parts[b] = parts[b][:0]
	}
	s.parts.Put(&parts)
}

// Snapshot clones every shard under its lock and folds the clones
// with merge, returning a summary equivalent (by mergeability) to one
// that observed every update. Ingestion continues concurrently;
// the snapshot is a consistent-per-shard cut. The clones are folded
// with mergetree.Parallel — the lock-free pairing reduction — so a
// wide Sharded (64+ shards) snapshots in O(log p) merge depth on a
// multi-core host instead of a serial O(p) chain; mergeability
// guarantees the tree order changes nothing about the result's error
// bound.
func (s *Sharded[S]) Snapshot(clone func(S) S, merge func(dst, src S) error) (S, error) {
	clones := make([]S, len(s.shards))
	for i := range s.shards {
		s.mus[i].Lock()
		clones[i] = clone(s.shards[i])
		s.mus[i].Unlock()
	}
	acc, err := mergetree.Parallel(clones, runtime.GOMAXPROCS(0), mergetree.MergeFunc[S](merge))
	if err != nil {
		return acc, fmt.Errorf("shard: merging snapshot: %w", err)
	}
	return acc, nil
}

// Drain removes and returns the shard summaries, replacing them with
// fresh ones from mk — the epoch-rotation pattern for periodic
// flushing to an aggregator.
func (s *Sharded[S]) Drain(mk func(shard int) S) []S {
	out := make([]S, len(s.shards))
	for i := range s.shards {
		s.mus[i].Lock()
		out[i] = s.shards[i]
		s.shards[i] = mk(i)
		s.mus[i].Unlock()
	}
	return out
}
