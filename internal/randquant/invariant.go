//go:build sanitize

package randquant

import (
	"fmt"
	"slices"
)

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer (it re-decodes every frame a reused receiver takes).
const sanitizeEnabled = true

// debugAssertDecoded panics if a reused receiver, having decoded
// frame into recycled storage, differs anywhere from a fresh summary
// decoding the same frame: block size, level budget, sampling exponent,
// weight, partial buffer, every level of the hierarchy, and the RNG
// state its next draw comes from.
// This is the sanitize layer's (`go test -tags sanitize`, DESIGN.md)
// check on the decode-in-place path.
func debugAssertDecoded(s *Summary, frame []byte, reused bool) {
	if !reused {
		return // also what ends the recursion: fresh is not reused
	}
	var fresh Summary
	if err := fresh.UnmarshalBinary(frame); err != nil {
		panic(fmt.Sprintf("randquant: sanitize: fresh decode of an accepted frame failed: %v", err))
	}
	same := s.s == fresh.s && s.l == fresh.l && s.ell == fresh.ell && s.n == fresh.n && s.rng.State() == fresh.rng.State() &&
		slices.Equal(s.partial, fresh.partial) && len(s.blocks) == len(fresh.blocks)
	for i := 0; same && i < len(s.blocks); i++ {
		same = slices.Equal(s.blocks[i], fresh.blocks[i]) && (s.blocks[i] == nil) == (fresh.blocks[i] == nil)
	}
	if !same {
		panic("randquant: sanitize: reused receiver differs from a fresh decode of the same frame")
	}
}
