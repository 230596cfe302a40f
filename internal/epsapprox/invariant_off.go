//go:build !sanitize

package epsapprox

// debugAssert is a no-op unless built with -tags sanitize.
func debugAssert(*Summary, bool) {}
