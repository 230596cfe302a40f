//go:build !sanitize

package randquant

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer; see invariant.go (build tag sanitize).
const sanitizeEnabled = false

// debugAssertDecoded is a no-op unless built with -tags sanitize.
func debugAssertDecoded(*Summary, []byte, bool) {}
