// Package window turns any mergeable summary into a sliding-window
// summary over tumbling epochs: updates go to the current epoch's
// summary, the ring retains the most recent E epochs, and a window
// query merges the relevant epochs on demand. Correctness is pure
// mergeability (the PODS'12 property): the merged epoch summaries
// carry the same guarantee as one summary built over the window's
// stream — an extension the paper's framework makes one page of code.
package window

import (
	"fmt"
)

// Windowed maintains a ring of per-epoch summaries of type S. It is
// not safe for concurrent use; wrap with package shard for that.
type Windowed[S any] struct {
	epochs []S
	seq    []uint64 // epoch sequence numbers, 0 = never used
	head   int      // index of the current epoch
	now    uint64   // current epoch sequence number (starts at 1)
	mk     func(epoch uint64) S

	// Query memoizes the merge of the window's sealed epochs (every
	// covered epoch except the live one, which callers mutate through
	// Current between queries). Sealed epochs are frozen, so the tail
	// stays valid until the epoch advances or the window length
	// changes — a repeated query re-merges one summary, not the whole
	// window.
	tail      S
	tailLen   int    // window length the tail was computed for
	tailEpoch uint64 // epoch the tail was computed at
	tailOK    bool   // tail covers >= 1 sealed epoch
	tailSet   bool   // tail slot holds a summary (recyclable)
	recycle   func(S)
}

// New returns a Windowed retaining the most recent capacity epochs;
// mk builds an empty summary for a given epoch sequence number.
func New[S any](capacity int, mk func(epoch uint64) S) *Windowed[S] {
	if capacity < 1 {
		panic("window: capacity must be >= 1")
	}
	w := &Windowed[S]{
		epochs: make([]S, capacity),
		seq:    make([]uint64, capacity),
		mk:     mk,
		now:    1,
	}
	w.epochs[0] = mk(1)
	w.seq[0] = 1
	return w
}

// Capacity returns the number of retained epochs.
func (w *Windowed[S]) Capacity() int { return len(w.epochs) }

// Epoch returns the current epoch sequence number (starting at 1).
func (w *Windowed[S]) Epoch() uint64 { return w.now }

// Current returns the summary receiving updates.
func (w *Windowed[S]) Current() S { return w.epochs[w.head] }

// Advance closes the current epoch and opens a fresh one, discarding
// the oldest epoch once the ring is full.
func (w *Windowed[S]) Advance() {
	w.now++
	w.head = (w.head + 1) % len(w.epochs)
	w.epochs[w.head] = w.mk(w.now)
	w.seq[w.head] = w.now
}

// SetRecycler installs a hook that receives query-tail summaries the
// window no longer needs (an epoch advance or a different window
// length invalidates the memoized tail). Callers running over the
// registry catalog typically pass the family entry's PutScratch so
// invalidated tails return to the family's sync.Pool instead of the
// garbage collector.
func (w *Windowed[S]) SetRecycler(put func(S)) { w.recycle = put }

// dropTail invalidates the memoized sealed-epoch merge, recycling the
// summary it holds.
func (w *Windowed[S]) dropTail() {
	if w.tailSet && w.recycle != nil {
		w.recycle(w.tail)
	}
	var zero S
	w.tail = zero
	w.tailOK = false
	w.tailSet = false
}

// Query merges the summaries of the most recent `last` epochs
// (including the current one) into a fresh summary: clone copies an
// epoch summary, merge folds src into dst (and must not mutate src).
// last is clamped to the retained range.
//
// The merge of the sealed epochs is memoized per (last, epoch): while
// no epoch advances, a repeated query clones the memoized tail and
// folds in only the live epoch — one clone and one merge instead of
// re-merging the whole window — so a dashboard polling the same
// window between ticks no longer pays O(window) merges per refresh.
func (w *Windowed[S]) Query(last int, clone func(S) S, merge func(dst, src S) error) (S, error) {
	var zero S
	if last < 1 {
		last = 1
	}
	if last > len(w.epochs) {
		last = len(w.epochs)
	}
	if w.tailLen != last || w.tailEpoch != w.now || !w.tailSet {
		// Rebuild the sealed tail: every in-range epoch except the
		// live one, oldest first. Sealed epochs never change, so this
		// runs once per (advance, window length), not once per query.
		w.dropTail()
		for i := last - 1; i >= 1; i-- {
			idx := (w.head - i + len(w.epochs)) % len(w.epochs)
			if w.seq[idx] == 0 || w.seq[idx] >= w.now || w.seq[idx]+uint64(last) <= w.now {
				continue // never used, live, or outside the window
			}
			if !w.tailSet {
				w.tail = clone(w.epochs[idx])
				w.tailSet = true
				w.tailOK = true
				continue
			}
			if err := merge(w.tail, w.epochs[idx]); err != nil {
				w.dropTail()
				return zero, fmt.Errorf("window: merging epoch %d: %w", w.seq[idx], err)
			}
		}
		w.tailLen = last
		w.tailEpoch = w.now
		if !w.tailSet {
			// No sealed epochs in range; memoize the emptiness.
			w.tailSet = true
			w.tailOK = false
		}
	}
	if !w.tailOK {
		// Only the live epoch is in range.
		return clone(w.epochs[w.head]), nil
	}
	acc := clone(w.tail)
	if err := merge(acc, w.epochs[w.head]); err != nil {
		return zero, fmt.Errorf("window: merging epoch %d: %w", w.now, err)
	}
	return acc, nil
}

// Epochs returns the retained (sequence, summary) pairs from newest to
// oldest; used for inspection and tests.
func (w *Windowed[S]) Epochs() []uint64 {
	var out []uint64
	for i := 0; i < len(w.epochs); i++ {
		idx := (w.head - i + len(w.epochs)) % len(w.epochs)
		if w.seq[idx] != 0 {
			out = append(out, w.seq[idx])
		}
	}
	return out
}
