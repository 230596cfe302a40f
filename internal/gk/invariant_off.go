//go:build !sanitize

package gk

// debugAssert is a no-op unless built with -tags sanitize.
func debugAssert(*Summary) {}
