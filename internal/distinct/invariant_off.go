//go:build !sanitize

package distinct

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer; see invariant.go (build tag sanitize).
const sanitizeEnabled = false

// The debugAssert family is a no-op unless built with -tags sanitize.

func debugAssertKMV(*KMV) {}

func debugAssertHLL(*HLL) {}

func debugAssertKMVSampled(*KMV) {}

func debugAssertHLLSampled(*HLL) {}

func debugAssertHLLDecoded(*HLL, []byte, bool) {}
