package epsapprox

import "repro/internal/core"

// debugAssert panics, in a core.Sanitize build, if s breaks a law
// (checkInvariants). Update and Merge call it once they are done; the
// promotions inside a merge are checked with the merge, whose weight
// n is only right again at its end.
func debugAssert(s *Summary) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("epsapprox: sanitize: " + err.Error())
	}
}
