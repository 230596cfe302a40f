package sampling

import (
	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/registry"
)

// init catalogs the family; see internal/registry.
func init() {
	registry.Register[BottomK](codec.KindBottomK, "bottomk", registry.Spec[BottomK]{
		Example: func(n int) *BottomK {
			s := NewBottomK(256, 8)
			for _, v := range gen.UniformValues(n, 8) {
				s.Update(v)
			}
			return s
		},
		Merge: (*BottomK).Merge,
		N:     (*BottomK).N,
	})
}
