package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ops is the family-erased merge surface the ingest front needs: a
// merge that folds src into dst. The registry's *Entry satisfies it, so
// a server can hand a catalog entry straight to NewFront without this
// package importing the registry.
type Ops interface {
	Merge(dst, src any) error
}

// Front is a per-CPU (per-goroutine-shard) ingest front for one
// aggregation target: concurrent producers fold incoming summaries
// into per-lane pending accumulators chosen by a producer token, so
// pushes from different producers never contend on the target's lock —
// or on each other, as long as their tokens spread across lanes. The
// owner of the target drains the lanes on an epoch tick (or before a
// read) and merges the pending summaries in; mergeability guarantees
// the result is identical in bound to having merged every push
// directly.
//
// A Front is safe for concurrent use. It holds at most one pending
// summary per lane, so its memory footprint is bounded by lanes ×
// summary size regardless of push rate.
type Front struct {
	ops   Ops
	lanes []frontLane
	dirty atomic.Int64 // number of lanes holding a pending summary
}

// frontLane is one accumulation slot. The pad keeps neighbouring lanes
// on separate cache lines so uncontended pushes do not false-share.
type frontLane struct {
	mu      sync.Mutex
	pending any
	_       [40]byte
}

// NewFront returns a front over the given merge surface with the given
// lane count; lanes < 1 selects GOMAXPROCS lanes.
func NewFront(ops Ops, lanes int) *Front {
	if lanes < 1 {
		lanes = runtime.GOMAXPROCS(0)
	}
	return &Front{ops: ops, lanes: make([]frontLane, lanes)}
}

// Lanes returns the lane count.
func (f *Front) Lanes() int { return len(f.lanes) }

// Push folds src into the lane selected by token. On return the front
// owns src if consumed is true (src became the lane's pending
// accumulator; the caller must not touch it again); otherwise src was
// merged into the lane's accumulator and the caller may recycle it. A
// merge error leaves the lane's accumulator in an unspecified but
// drainable state and returns the error with consumed false.
//
// Tokens only affect contention, never correctness: any token
// distribution yields the same merged result up to merge order, which
// mergeability makes guarantee-equivalent.
func (f *Front) Push(token uint64, src any) (consumed bool, err error) {
	ln := &f.lanes[token%uint64(len(f.lanes))]
	ln.mu.Lock()
	if ln.pending == nil {
		ln.pending = src
		f.dirty.Add(1) // inside the lock: a completed Push is always visible to Dirty
		ln.mu.Unlock()
		return true, nil
	}
	err = f.ops.Merge(ln.pending, src)
	ln.mu.Unlock()
	return false, err
}

// Dirty reports whether any lane holds a pending summary. A false
// return is a consistent read: every Push that completed before the
// call is either drained or visible.
func (f *Front) Dirty() bool { return f.dirty.Load() != 0 }

// Drain removes and returns every lane's pending summary. The caller
// assumes ownership of the returned summaries and typically merges
// them into the aggregation target under its own lock. Pushes racing a
// drain land in whichever side wins each lane's lock; nothing is lost.
func (f *Front) Drain() []any {
	if f.dirty.Load() == 0 {
		return nil
	}
	var out []any
	for i := range f.lanes {
		ln := &f.lanes[i]
		ln.mu.Lock()
		p := ln.pending
		if p != nil {
			ln.pending = nil
			f.dirty.Add(-1)
		}
		ln.mu.Unlock()
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}
