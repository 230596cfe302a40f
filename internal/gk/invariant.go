package gk

import "repro/internal/core"

// debugAssert panics, in a core.Sanitize build, if the summary breaks
// a GK law (checkInvariants). flush and Merge call it once they are
// done, so the one-sweep flush is checked against the laws on every
// run.
func debugAssert(s *Summary) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("gk: sanitize: " + err.Error())
	}
}
