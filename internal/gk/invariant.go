//go:build sanitize

package gk

// debugAssert panics if the summary breaks a GK invariant: tuples
// sorted with no NaN, g ≥ 1, g+Δ ≤ ⌊2εn⌋+1, and Σg plus the pending
// inserts equal to n. flush and Merge call it once they are done, so
// the one-sweep flush is checked against the invariants on every run.
func debugAssert(s *Summary) {
	if err := s.checkInvariants(); err != nil {
		panic("gk: sanitize: " + err.Error())
	}
}
