package spacesaving

import (
	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/registry"
)

// init catalogs the family; see internal/registry.
func init() {
	registry.Register[Summary](codec.KindSpaceSaving, "ss", registry.Spec[Summary]{
		Example: func(n int) *Summary {
			s := New(64)
			for i, x := range gen.NewZipf(512, 1.2, 2).Stream(n) {
				s.Update(x, uint64(i%3+1))
			}
			return s
		},
		// The catalog's one merge is the low-total-error closed form
		// (Cafaro et al.); the PODS'12 Merge stays a method for
		// experiment E04.
		Merge: (*Summary).MergeLowError,
		N:     (*Summary).N,
	})
}
