//go:build !sanitize

package countmin

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer; see invariant.go (build tag sanitize).
const sanitizeEnabled = false

// debugAssert is a no-op unless built with -tags sanitize.
func debugAssert(*Sketch) {}

// debugAssertSampled is a no-op unless built with -tags sanitize.
func debugAssertSampled(*Sketch) {}

// debugAssertDecoded is a no-op unless built with -tags sanitize.
func debugAssertDecoded(*Sketch, []byte, bool) {}
