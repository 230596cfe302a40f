package randquant

import (
	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/registry"
)

// init catalogs the family; see internal/registry. The one entry
// carries both modes: a frame's flag byte says whether it is a plain
// or a bounded (NewHybrid) summary, so a slot's mode is whatever its
// first frame says, and Merge keeps the two apart.
func init() {
	registry.Register[Summary](codec.KindRandQuant, "quantile", registry.Spec[Summary]{
		Example: func(n int) *Summary {
			s := NewEpsilon(0.02, 4)
			for _, v := range gen.UniformValues(n, 4) {
				s.Update(v)
			}
			return s
		},
		Merge: (*Summary).Merge,
		N:     (*Summary).N,
	})
}
