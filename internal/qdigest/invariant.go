//go:build sanitize

package qdigest

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer (`go test -tags sanitize`). See DESIGN.md.
const sanitizeEnabled = true

// debugAssert panics if d's flat layout is inconsistent (body ids
// strictly ascending, pending-leaf table and body agreeing on size),
// then compresses a clone of d and panics if it violates the q-digest
// property: positive node counts inside the tree, the
// compression completeness bound c(v)+c(sibling)+c(parent) > n/k for
// every non-root node, and total mass equal to n. This is the weight
// bound every merge order must preserve (Agarwal et al. §3). The
// clone keeps the assert side-effect-free: compressing d itself would
// be legal, but it would make sanitize builds take different
// amortization paths than release builds (and break the batch-vs-loop
// state-equivalence tests).
func debugAssert(d *Digest) {
	if err := d.checkLayout(); err != nil {
		panic("qdigest: sanitize: " + err.Error())
	}
	c := d.Clone()
	c.Compress()
	if err := c.checkInvariants(); err != nil {
		panic("qdigest: sanitize: " + err.Error())
	}
}

// debugAssertSampled runs debugAssert on a deterministic sample of
// calls (keyed on n): forcing a compression per update would defeat
// the amortization the update path is built around.
func debugAssertSampled(d *Digest) {
	if d.n&1023 == 0 {
		debugAssert(d)
	}
}
