package randquant

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// debugAssertDecoded panics, in a core.Sanitize build, if a reused
// receiver, having decoded frame into recycled storage, differs
// anywhere from a fresh summary decoding the same frame: block size,
// level budget, sampling exponent, weight, partial buffer, every level
// of the hierarchy, and the RNG state its next draw comes from. The
// decoder has already held the frame to checkInvariants.
func debugAssertDecoded(s *Summary, frame []byte, reused bool) {
	if !core.Sanitize || !reused {
		return // !reused also ends the recursion: fresh is not reused
	}
	var fresh Summary
	if err := fresh.UnmarshalBinary(frame); err != nil {
		panic(fmt.Sprintf("randquant: sanitize: fresh decode of an accepted frame failed: %v", err))
	}
	a, b := &s.lv, &fresh.lv
	same := a.S == b.S && s.l == fresh.l && a.Ell == b.Ell && a.N == b.N && a.RNG.State() == b.RNG.State() &&
		slices.Equal(a.Partial.Keys, b.Partial.Keys) && len(a.Blocks) == len(b.Blocks)
	for i := 0; same && i < len(a.Blocks); i++ {
		same = slices.Equal(a.Blocks[i].Keys, b.Blocks[i].Keys) && (a.Blocks[i].Keys == nil) == (b.Blocks[i].Keys == nil)
	}
	if !same {
		panic("randquant: sanitize: reused receiver differs from a fresh decode of the same frame")
	}
}
