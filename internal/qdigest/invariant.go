package qdigest

import "repro/internal/core"

// debugAssert panics, in a core.Sanitize build, if d's flat layout is
// inconsistent (checkLayout), or if a compressed clone of d breaks the
// q-digest property (checkInvariants): the weight bound every merge
// order must preserve (Agarwal et al. §3). The clone keeps the assert
// side-effect-free: compressing d itself would be legal, but it would
// make sanitize builds take different amortization paths than release
// builds (and break the batch-vs-loop state-equivalence tests).
func debugAssert(d *Digest) {
	if !core.Sanitize {
		return
	}
	err := d.checkLayout()
	if err == nil {
		c := d.Clone()
		c.Compress()
		err = c.checkInvariants()
	}
	if err != nil {
		panic("qdigest: sanitize: " + err.Error())
	}
}

// debugAssertSampled runs debugAssert on a deterministic sample of
// calls (keyed on n): forcing a compression per update would defeat
// the amortization the update path is built around.
func debugAssertSampled(d *Digest) {
	if core.Sanitize && d.n&1023 == 0 {
		debugAssert(d)
	}
}
