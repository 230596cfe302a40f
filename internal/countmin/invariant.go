package countmin

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// checkInvariants reports the first Count-Min law s breaks:
//
//   - geometry is intact (depth rows of width cells, per-row hash
//     parameters present);
//   - row mass: every row carries at least the summarized weight n,
//     and all rows carry the same total, with no row's sum wrapping —
//     each update adds exactly w to every row, which is what makes the
//     sketch a linear (trivially mergeable) function of the frequency
//     vector (R8).
func (s *Sketch) checkInvariants() error {
	if len(s.cells) != s.depth*s.width || len(s.a) != s.depth || len(s.b) != s.depth {
		return fmt.Errorf("geometry broken: %d cells for %dx%d", len(s.cells), s.depth, s.width)
	}
	var first uint64
	for i := 0; i < s.depth; i++ {
		var sum, carry uint64
		for _, c := range s.row(i) {
			if sum, carry = bits.Add64(sum, c, 0); carry != 0 {
				return fmt.Errorf("row %d mass overflows", i)
			}
		}
		if sum < s.n {
			return fmt.Errorf("row %d mass %d below n=%d (lost weight)", i, sum, s.n)
		}
		if i == 0 {
			first = sum
		} else if sum != first {
			return fmt.Errorf("row %d mass %d differs from row 0 mass %d (linearity broken)", i, sum, first)
		}
	}
	return nil
}

// debugAssert panics if s breaks a law, in a core.Sanitize build.
func debugAssert(s *Sketch) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("countmin: sanitize: " + err.Error())
	}
}

// debugAssertSampled runs the O(width·depth) debugAssert on a
// deterministic sample of calls (keyed on n), keeping per-item paths
// usable under the sanitize tag.
func debugAssertSampled(s *Sketch) {
	if core.Sanitize && s.n&1023 == 0 {
		debugAssert(s)
	}
}

// debugAssertDecoded panics, in a core.Sanitize build, if a reused
// receiver, having decoded frame in place, differs anywhere from a
// fresh sketch decoding the same frame: geometry, seed, weight, every
// cell and — what the wire does not carry — the hash rows.
func debugAssertDecoded(s *Sketch, frame []byte, reused bool) {
	if !core.Sanitize || !reused {
		return // !reused also ends the recursion: fresh is not reused
	}
	var fresh Sketch
	if err := fresh.UnmarshalBinary(frame); err != nil {
		panic(fmt.Sprintf("countmin: sanitize: fresh decode of an accepted frame failed: %v", err))
	}
	if s.width != fresh.width || s.depth != fresh.depth || s.seed != fresh.seed || s.n != fresh.n ||
		!slices.Equal(s.cells, fresh.cells) || !slices.Equal(s.a, fresh.a) || !slices.Equal(s.b, fresh.b) {
		panic("countmin: sanitize: reused receiver differs from a fresh decode of the same frame")
	}
}
