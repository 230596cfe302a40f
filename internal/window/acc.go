package window

import "sync/atomic"

// Acc is a versioned accumulator: a summary folded in arrival order, a
// version, and the frame last encoded from it. A server slot's all-time
// state is one, and so is a plane's live epoch. Every mutation bumps
// the version first, a failed merge included, and a published frame is
// valid iff its version is the Acc's. An Acc has no lock and no family
// of its own: the owner runs every method but Cached under its lock and
// passes its Ops in. The zero Acc is empty.
type Acc struct {
	v    any
	ver  atomic.Uint64
	snap atomic.Pointer[accFrame]
}

// accFrame is one published encoding; data is immutable and shared.
type accFrame struct {
	ver  uint64
	data []byte
}

// Value returns the summary, nil while the Acc is empty; mutate it only
// through Update.
func (a *Acc) Value() any { return a.v }

// Version returns the mutation count.
func (a *Acc) Version() uint64 { return a.ver.Load() }

// Fold installs src into an empty Acc (consumed: ownership transfers)
// or merges it in. After a failed merge src may alias the half-mutated
// summary and must not be recycled.
func (a *Acc) Fold(ops Ops, src any) (consumed bool, err error) {
	a.ver.Add(1)
	if a.v == nil {
		a.v = src
		return true, nil
	}
	return false, ops.Merge(a.v, src)
}

// Update applies f to the summary, which must exist.
func (a *Acc) Update(f func(v any)) {
	a.ver.Add(1)
	f(a.v)
}

// Take empties the Acc and returns what it held (nil if nothing).
func (a *Acc) Take() any {
	a.ver.Add(1)
	v := a.v
	a.v = nil
	a.snap.Store(nil)
	return v
}

// Cached returns the published frame while it is valid: two atomic
// loads and no lock, so it needs no owner lock.
func (a *Acc) Cached() ([]byte, bool) {
	if f := a.snap.Load(); f != nil && f.ver == a.ver.Load() {
		return f.data, true
	}
	return nil, false
}

// Frame returns the encoding of the summary, which must exist, and
// publishes it when it had to encode.
func (a *Acc) Frame(ops Ops) ([]byte, error) {
	if data, ok := a.Cached(); ok {
		return data, nil
	}
	data, err := ops.Encode(a.v)
	if err != nil {
		return nil, err
	}
	a.snap.Store(&accFrame{ver: a.ver.Load(), data: data})
	return data, nil
}
