package window

import (
	"errors"
	"fmt"

	"repro/internal/registry"
)

// Windowed is the typed library view of the plane: a sliding window of
// the most recent Capacity epochs of summaries of type S (a registered
// family's pointer type, e.g. *mg.Summary), held as a one-level
// plane — the flat per-epoch ring, no roll-ups. Updates go to the live
// epoch, Advance seals it, and a window query reduces the sealed
// epochs' frames and the live summary through the plane's one Reduce,
// answered from its cache while nothing changes. It is as safe for
// concurrent use as the plane, and like it owns nothing to close.
type Windowed[S any] struct {
	p        *Plane
	mk       func(epoch uint64) S
	capacity int
}

// New returns a Windowed retaining the most recent capacity epochs,
// the live one included; mk builds an empty summary for a given epoch
// sequence number. It panics if capacity < 1 or S is not a registered
// family's summary type.
func New[S any](capacity int, mk func(epoch uint64) S) *Windowed[S] {
	if capacity < 1 {
		panic("window: capacity must be >= 1")
	}
	ent, ok := registry.ByType[S]()
	if !ok {
		panic(fmt.Sprintf("window: %T is not a registered summary type", *new(S)))
	}
	// capacity-1 sealed epochs stand behind the live one.
	l := Ladder{Levels: 1, Horizon: []uint64{uint64(max(capacity-1, 1))}}
	p, err := NewPlane(ent, func(epoch uint64) any { return mk(epoch) }, l)
	if err != nil {
		panic(err) // unreachable: the ladder above is valid
	}
	return &Windowed[S]{p: p, mk: mk, capacity: capacity}
}

// Capacity returns the number of retained epochs.
func (w *Windowed[S]) Capacity() int { return w.capacity }

// Epoch returns the live epoch sequence number (starting at 1).
func (w *Windowed[S]) Epoch() uint64 { return w.p.Epoch() }

// Update applies f to the live epoch's summary under the plane lock;
// f must only mutate the summary (batch inside it — one call per
// chunk, not per item).
func (w *Windowed[S]) Update(f func(cur S)) {
	w.p.Update(func(cur any) { f(cur.(S)) })
}

// Advance seals the live epoch and opens a fresh one; epochs older
// than the capacity are dropped.
func (w *Windowed[S]) Advance() error { return w.p.Advance() }

// Query returns a fresh summary of the most recent `last` epochs, the
// live one included, which the caller owns; last is clamped to
// [1, Capacity]. A window nothing was written in answers with an empty
// summary.
func (w *Windowed[S]) Query(last int) (S, error) {
	v, err := w.p.query(0, 0, uint64(min(max(last, 1), w.capacity)))
	if errors.Is(err, ErrNoData) {
		return w.mk(w.p.Epoch()), nil
	}
	if err != nil {
		var zero S
		return zero, err
	}
	return v.(S), nil
}
