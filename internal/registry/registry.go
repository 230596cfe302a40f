// Package registry is the typed catalog of every summary family in
// this repository: one entry per codec.Kind, mapping the wire tag to
// the family's canonical name, constructors, codec, its one merge,
// weight accessor, and a pooled scratch of decode targets that keep
// their storage from frame to frame.
//
// The catalog is the single dispatch plane between the codec and
// everything above it: the aggregation server, both binaries, the
// roll-up plane and the cluster fan-in, and the public
// mergesum.Decode/Kinds API all resolve families here instead of
// keeping their own per-kind tables. Each family package registers
// itself in an init with one Register call, compile-time-checked
// against the wire interfaces; TestCatalogComplete fails when a codec
// kind has no registration. Package all links every family into a
// binary that wants the full catalog without importing families
// directly.
//
// Registration happens only during package init (Go serializes inits
// and publishes them before main), so the catalog is read-only at
// runtime and lookups take no lock.
package registry

import (
	"encoding"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/codec"
)

// Codec constrains a family's pointer type to the wire interfaces;
// Register is compile-time-checked against it, so a family cannot be
// cataloged without a working binary codec.
type Codec[T any] interface {
	*T
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Spec declares one family for Register. Merge, N and Example are
// required.
type Spec[T any] struct {
	// Example returns a canonically-parameterized summary filled with
	// n deterministic updates. All Example summaries of one family
	// are merge-compatible (same k/eps/geometry/seed), which is what
	// makes them usable as fixtures for the completeness tests, fuzz
	// seeds and per-kind server benchmarks.
	Example func(n int) *T
	// Merge folds src into dst. It is the one merge everything that
	// goes through the catalog runs — the server, the fan-in, the
	// roll-up plane and the CLI — so they all fold alike. Misra-Gries
	// and SpaceSaving register their low-total-error merge (Cafaro et
	// al.); every other family its PODS'12 merge.
	Merge func(dst, src *T) error
	// N reports the total weight summarized, merged-in weight included.
	N func(*T) uint64
}

// Entry is one family's catalog row. All fields are set at
// registration and immutable afterwards.
type Entry struct {
	kind       codec.Kind
	name       string
	newFn      func() any
	example    func(int) any
	decodeInto func(dst any, frame []byte) error
	encode     func(any) ([]byte, error)
	merge      func(dst, src any) error
	n          func(any) uint64
	owns       func(any) bool // reports a value of the family's summary type
	typ        reflect.Type   // the summary's pointer type, *T
	// scratch pools decode targets, which keep their storage between
	// frames (see DecodeInto). Two rules make that safe, both checked
	// for every family by this package's tests: every merge in this
	// module deep-copies src, so a merged-in summary can immediately be
	// decoded into again without the accumulator noticing; and a
	// summary in any state decodes the next frame as a fresh one would.
	// What a scratch retains is bounded by sync.Pool's GC drain, not by
	// a size knob.
	scratch sync.Pool
}

// Kind returns the wire tag.
func (e *Entry) Kind() codec.Kind { return e.kind }

// Name returns the canonical wire name ("mg", "quantile", ...).
func (e *Entry) Name() string { return e.name }

// New returns an empty decode target for this family.
func (e *Entry) New() any { return e.newFn() }

// Example returns a canonically-parameterized summary holding n
// deterministic updates; see Spec.Example.
func (e *Entry) Example(n int) any { return e.example(n) }

// DecodeInto fully replaces dst's contents with the decoded frame,
// in dst's own storage where the family can. dst must come from New
// or GetScratch of the same entry and may be in any state — the zero
// value, other parameters, left by a failed decode, merged from,
// partly merged into: it decodes to exactly what a fresh summary
// would (same bytes, same later behaviour). On error dst is left
// untouched or empty, never half-written, and can be decoded into or
// recycled as it is.
func (e *Entry) DecodeInto(dst any, frame []byte) error { return e.decodeInto(dst, frame) }

// Decode decodes a frame into a fresh summary.
func (e *Entry) Decode(frame []byte) (any, error) {
	v := e.newFn()
	if err := e.decodeInto(v, frame); err != nil {
		return nil, err
	}
	return v, nil
}

// Encode returns the summary's wire frame.
func (e *Entry) Encode(v any) ([]byte, error) { return e.encode(v) }

// Merge folds src into dst with the family's registered merge (see
// Spec.Merge). Both operands must be this family's summary type; a
// cross-family mix-up is an error before any mutation, never a panic
// mid-merge.
func (e *Entry) Merge(dst, src any) error {
	if !e.owns(dst) || !e.owns(src) {
		return fmt.Errorf("registry: %s: merge operands must be the family's summary type (got %T, %T)", e.name, dst, src)
	}
	return e.merge(dst, src)
}

// N reports the summary's total summarized weight.
func (e *Entry) N(v any) uint64 { return e.n(v) }

// GetScratch returns a pooled decode target of this family.
func (e *Entry) GetScratch() any {
	if v := e.scratch.Get(); v != nil {
		return v
	}
	return e.newFn()
}

// PutScratch recycles a summary whose contents are no longer
// referenced: decoded and merged from, failed to decode, or half
// merged into — the next DecodeInto replaces whatever it holds, and
// reuses its storage. Never recycle a summary something else still
// owns.
func (e *Entry) PutScratch(v any) { e.scratch.Put(v) }

var (
	byKind [codec.KindCount]*Entry
	byName = map[string]*Entry{}
)

// Register catalogs one family under its wire tag and canonical name.
// It is called once per family from the family package's init and
// panics on an incomplete spec, a reused tag, or a reused name — the
// tag-collision class of bug (topk shadowing countmin's tag, hll and
// kmv shadowing bottomk's) becomes a startup failure instead of a
// wire-format ambiguity.
func Register[T any, PT Codec[T]](kind codec.Kind, name string, spec Spec[T]) {
	switch {
	case kind == codec.KindInvalid || int(kind) >= codec.KindCount:
		panic(fmt.Sprintf("registry: kind %d out of range", uint8(kind)))
	case name == "" || spec.Merge == nil || spec.N == nil || spec.Example == nil:
		panic(fmt.Sprintf("registry: kind %v: needs a name, and a Spec with Example, Merge and N", kind))
	case byName[name] != nil:
		panic(fmt.Sprintf("registry: name %q already registered", name))
	case byKind[kind] != nil:
		panic(fmt.Sprintf("registry: kind %v already registered as %q", kind, byKind[kind].name))
	}
	codec.RegisterKindName(kind, name)
	e := &Entry{
		kind:       kind,
		name:       name,
		newFn:      func() any { return new(T) },
		example:    func(n int) any { return spec.Example(n) },
		decodeInto: func(dst any, b []byte) error { return PT(dst.(*T)).UnmarshalBinary(b) },
		encode:     func(v any) ([]byte, error) { return PT(v.(*T)).MarshalBinary() },
		merge:      func(d, s any) error { return spec.Merge(d.(*T), s.(*T)) },
		n:          func(v any) uint64 { return spec.N(v.(*T)) },
		owns:       func(v any) bool { p, ok := v.(*T); return ok && p != nil },
		typ:        reflect.TypeFor[*T](),
	}
	byKind[kind] = e
	byName[name] = e
}

// ByKind returns the entry registered under the wire tag.
func ByKind(k codec.Kind) (*Entry, bool) {
	if k == codec.KindInvalid || int(k) >= codec.KindCount || byKind[k] == nil {
		return nil, false
	}
	return byKind[k], true
}

// ByName returns the entry registered under the canonical wire name.
func ByName(name string) (*Entry, bool) {
	e, ok := byName[name]
	return e, ok
}

// ByType returns the entry whose summary type is S — the pointer type
// the family registered, e.g. *mg.Summary — for callers that hold the
// type and not the name (the typed window view).
func ByType[S any]() (*Entry, bool) {
	typ := reflect.TypeFor[S]()
	for _, e := range byKind {
		if e != nil && e.typ == typ {
			return e, true
		}
	}
	return nil, false
}

// Entries returns every registered entry in ascending tag order.
func Entries() []*Entry {
	out := make([]*Entry, 0, len(byName))
	for _, e := range byKind {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// Names returns every registered wire name in ascending tag order.
func Names() []string {
	out := make([]string, 0, len(byName))
	for _, e := range byKind {
		if e != nil {
			out = append(out, e.name)
		}
	}
	return out
}

// FromFrame resolves the entry serving a wire frame by peeking at its
// kind tag; the frame's payload is not validated here.
func FromFrame(data []byte) (*Entry, error) {
	k, err := codec.PeekKind(data)
	if err != nil {
		return nil, err
	}
	e, ok := ByKind(k)
	if !ok {
		return nil, fmt.Errorf("registry: no family registered for %v", k)
	}
	return e, nil
}
