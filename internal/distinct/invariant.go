package distinct

import (
	"bytes"
	"fmt"

	"repro/internal/core"
)

// checkInvariants reports the first k-minimum-values law s breaks: at
// most k stored hashes, max-heap order (every child ≤ its parent, so
// the root is the k-th minimum), and an exact membership set (no
// duplicates counted, no stale entries) once it has been built.
func (s *KMV) checkInvariants() error {
	if len(s.hashes) > s.k {
		return fmt.Errorf("KMV holds %d hashes, cap k=%d", len(s.hashes), s.k)
	}
	for i := 1; i < len(s.hashes); i++ {
		if s.hashes[i] > s.hashes[(i-1)/2] {
			return fmt.Errorf("KMV heap order broken at %d", i)
		}
	}
	if s.stale {
		return nil // the set is rebuilt from the hashes when an offer needs it
	}
	if err := s.member.Check(); err != nil {
		return fmt.Errorf("KMV member set: %w", err)
	}
	if s.member.Len() != len(s.hashes) {
		return fmt.Errorf("KMV member set has %d entries for %d hashes", s.member.Len(), len(s.hashes))
	}
	for _, h := range s.hashes {
		if s.member.Find(h) < 0 {
			return fmt.Errorf("KMV hash %#x missing from member set", h)
		}
	}
	return nil
}

// checkInvariants reports the first HyperLogLog law s breaks: exactly
// 2^p registers, each holding a rho value no larger than a 64-bit hash
// allows (64−p leading-zero bits plus one: maxRho).
func (s *HLL) checkInvariants() error {
	if len(s.regs) != 1<<s.p {
		return fmt.Errorf("HLL has %d registers, want 2^%d", len(s.regs), s.p)
	}
	max := maxRho(s.p)
	for i, r := range s.regs {
		if r > max {
			return fmt.Errorf("HLL register %d holds rho=%d, max %d", i, r, max)
		}
	}
	return nil
}

// debugAssertKMV panics if s breaks a law, in a core.Sanitize build.
func debugAssertKMV(s *KMV) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("distinct: sanitize: " + err.Error())
	}
}

// debugAssertHLL panics if s breaks a law, in a core.Sanitize build.
func debugAssertHLL(s *HLL) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("distinct: sanitize: " + err.Error())
	}
}

// debugAssertKMVSampled samples the O(k) KMV check 1-in-64 (keyed on
// n) so per-item ingestion stays usable under the sanitize tag.
func debugAssertKMVSampled(s *KMV) {
	if core.Sanitize && s.n&63 == 0 {
		debugAssertKMV(s)
	}
}

// debugAssertHLLSampled samples the O(2^p) HLL check (keyed on n).
func debugAssertHLLSampled(s *HLL) {
	if core.Sanitize && s.n&1023 == 0 {
		debugAssertHLL(s)
	}
}

// debugAssertHLLDecoded panics, in a core.Sanitize build, if a reused
// receiver, having decoded frame in place, differs anywhere from a
// fresh HLL decoding the same frame: precision, seed, weight or any
// register.
func debugAssertHLLDecoded(s *HLL, frame []byte, reused bool) {
	if !core.Sanitize || !reused {
		return // !reused also ends the recursion: fresh is not reused
	}
	var fresh HLL
	if err := fresh.UnmarshalBinary(frame); err != nil {
		panic(fmt.Sprintf("distinct: sanitize: fresh decode of an accepted HLL frame failed: %v", err))
	}
	if s.p != fresh.p || s.seed != fresh.seed || s.n != fresh.n || !bytes.Equal(s.regs, fresh.regs) {
		panic("distinct: sanitize: reused HLL receiver differs from a fresh decode of the same frame")
	}
}
