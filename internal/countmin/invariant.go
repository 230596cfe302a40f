//go:build sanitize

package countmin

import (
	"fmt"
	"slices"
)

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer (`go test -tags sanitize`). See DESIGN.md.
const sanitizeEnabled = true

// debugAssert panics if s violates the Count-Min structural
// invariants:
//
//   - geometry is intact (depth rows of width cells, per-row hash
//     parameters present);
//   - row mass: every row carries at least the summarized weight n,
//     and all rows carry the same total — each update adds exactly w
//     to every row, which is what makes the sketch a linear (trivially
//     mergeable) function of the frequency vector.
func debugAssert(s *Sketch) {
	if len(s.cells) != s.depth*s.width || len(s.a) != s.depth || len(s.b) != s.depth {
		panic(fmt.Sprintf("countmin: sanitize: geometry broken: %d cells for %dx%d", len(s.cells), s.depth, s.width))
	}
	var first uint64
	for i := 0; i < s.depth; i++ {
		row := s.row(i)
		var sum uint64
		for _, c := range row {
			sum += c
		}
		if sum < s.n {
			panic(fmt.Sprintf("countmin: sanitize: row %d mass %d below n=%d (lost weight)", i, sum, s.n))
		}
		if i == 0 {
			first = sum
		} else if sum != first {
			panic(fmt.Sprintf("countmin: sanitize: row %d mass %d differs from row 0 mass %d (linearity broken)", i, sum, first))
		}
	}
}

// debugAssertSampled runs the O(width·depth) debugAssert on a
// deterministic sample of calls (keyed on n), keeping per-item paths
// usable under the sanitize tag.
func debugAssertSampled(s *Sketch) {
	if s.n&1023 == 0 {
		debugAssert(s)
	}
}

// debugAssertDecoded panics if a reused receiver, having decoded
// frame in place, differs anywhere from a fresh sketch decoding the
// same frame: geometry, seed, weight, every cell and — what the wire
// does not carry — the hash rows.
func debugAssertDecoded(s *Sketch, frame []byte, reused bool) {
	if !reused {
		return // also what ends the recursion: fresh is not reused
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
