//go:build sanitize

package distinct

import (
	"bytes"
	"fmt"
)

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer (`go test -tags sanitize`). See DESIGN.md.
const sanitizeEnabled = true

// debugAssertKMV panics if s violates the k-minimum-values structural
// invariants: at most k stored hashes, max-heap order (every child ≤
// its parent, so the root is the k-th minimum), and an exact
// membership set (no duplicates counted, no stale entries) once it
// has been built.
func debugAssertKMV(s *KMV) {
	if len(s.hashes) > s.k {
		panic(fmt.Sprintf("distinct: sanitize: KMV holds %d hashes, cap k=%d", len(s.hashes), s.k))
	}
	for i := 1; i < len(s.hashes); i++ {
		parent := (i - 1) / 2
		if s.hashes[i] > s.hashes[parent] {
			panic(fmt.Sprintf("distinct: sanitize: KMV heap order broken at %d", i))
		}
	}
	if s.stale {
		return // the set is rebuilt from the hashes when an offer needs it
	}
	if s.member.size() != len(s.hashes) {
		panic(fmt.Sprintf("distinct: sanitize: KMV member set has %d entries for %d hashes", s.member.size(), len(s.hashes)))
	}
	for _, h := range s.hashes {
		if !s.member.has(h) {
			panic(fmt.Sprintf("distinct: sanitize: KMV hash %#x missing from member set", h))
		}
	}
}

// debugAssertHLL panics if s violates the HyperLogLog structural
// invariants: exactly 2^p registers, each holding a rho value no
// larger than a 64-bit hash allows (64−p leading-zero bits plus one).
func debugAssertHLL(s *HLL) {
	if len(s.regs) != 1<<s.p {
		panic(fmt.Sprintf("distinct: sanitize: HLL has %d registers, want 2^%d", len(s.regs), s.p))
	}
	max := uint8(64-s.p) + 1
	for i, r := range s.regs {
		if r > max {
			panic(fmt.Sprintf("distinct: sanitize: HLL register %d holds rho=%d, max %d", i, r, max))
		}
	}
}

// debugAssertKMVSampled samples the O(k) KMV check 1-in-64 (keyed on
// n) so per-item ingestion stays usable under the sanitize tag.
func debugAssertKMVSampled(s *KMV) {
	if s.n&63 == 0 {
		debugAssertKMV(s)
	}
}

// debugAssertHLLSampled samples the O(2^p) HLL check (keyed on n).
func debugAssertHLLSampled(s *HLL) {
	if s.n&1023 == 0 {
		debugAssertHLL(s)
	}
}

// debugAssertHLLDecoded panics if a reused receiver, having decoded
// frame in place, differs anywhere from a fresh HLL decoding the same
// frame: precision, seed, weight or any register.
func debugAssertHLLDecoded(s *HLL, frame []byte, reused bool) {
	if !reused {
		return // also what ends the recursion: fresh is not reused
	}
	var fresh HLL
	if err := fresh.UnmarshalBinary(frame); err != nil {
		panic(fmt.Sprintf("distinct: sanitize: fresh decode of an accepted HLL frame failed: %v", err))
	}
	if s.p != fresh.p || s.seed != fresh.seed || s.n != fresh.n || !bytes.Equal(s.regs, fresh.regs) {
		panic("distinct: sanitize: reused HLL receiver differs from a fresh decode of the same frame")
	}
}
