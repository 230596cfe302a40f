// Package regcomplete_a is the regcomplete fixture: one cataloged
// family, one family missing its registration, and one type without
// the full wire trio.
package regcomplete_a

import (
	"repro/internal/codec"
	"repro/internal/registry"
)

// Good is a family with the wire trio and a registration below.
type Good struct{ n uint64 }

func (g *Good) MarshalBinary() ([]byte, error)    { return nil, nil }
func (g *Good) UnmarshalBinary(data []byte) error { return nil }
func (g *Good) Merge(src *Good) error             { return nil }
func (g *Good) N() uint64                         { return g.n }

// Bad carries the full wire trio but never reaches the catalog.
type Bad struct{ n uint64 } // want `type Bad exports the MarshalBinary/UnmarshalBinary/Merge trio but is not cataloged`

func (b *Bad) MarshalBinary() ([]byte, error)    { return nil, nil }
func (b *Bad) UnmarshalBinary(data []byte) error { return nil }
func (b *Bad) Merge(src *Bad) error              { return nil }

// Partial lacks Merge, so it is not a family and draws no diagnostic.
type Partial struct{}

func (p *Partial) MarshalBinary() ([]byte, error)    { return nil, nil }
func (p *Partial) UnmarshalBinary(data []byte) error { return nil }

// init registers Good with an explicit type argument; the analyzer
// must also accept the inferred form (see regcomplete_b).
func init() {
	registry.Register[Good](codec.KindMisraGries, "fixture-good", registry.Spec[Good]{
		Example: func(n int) *Good { return &Good{n: uint64(n)} },
		Merge:   (*Good).Merge,
		N:       (*Good).N,
	})
}
