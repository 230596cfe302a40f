package spacesaving

import "repro/internal/core"

// debugAssert panics, in a core.Sanitize build, if s breaks a
// stream-summary law (checkInvariants), so a violation surfaces at the
// faulting Update/Merge, not at the next query.
func debugAssert(s *Summary) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("spacesaving: sanitize: " + err.Error())
	}
}

// debugAssertSampled runs debugAssert on a deterministic 1-in-64
// sample of calls (keyed on n), keeping the O(1) per-item path usable
// under the sanitize tag.
func debugAssertSampled(s *Summary) {
	if core.Sanitize && s.n&63 == 0 {
		debugAssert(s)
	}
}
