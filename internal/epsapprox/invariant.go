//go:build sanitize

package epsapprox

// debugAssert panics if a cached Morton key differs from a fresh
// computation, a block is not full and Z-sorted by its cached keys,
// or — where weight is set, i.e. at the end of a merge rather than in
// the middle of one — the stored weight is not exactly n. The cached
// keys are what every sort and halving trusts instead of the points,
// so a stale key would silently bend the curve order.
func debugAssert(s *Summary, weight bool) {
	err := s.checkKeys()
	if err == nil {
		n := s.n
		if !weight {
			n = s.StoredWeight()
		}
		err = checkShape(s.s, n, s.partial, s.blocks)
	}
	if err != nil {
		panic("epsapprox: sanitize: " + err.Error())
	}
}
