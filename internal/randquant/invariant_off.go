//go:build !sanitize

package randquant

// debugAssertDecoded is a no-op unless built with -tags sanitize.
func debugAssertDecoded(*Summary, []byte, bool) {}
