//go:build !sanitize

package kernel

import "repro/internal/gen"

// debugRejected is a no-op unless built with -tags sanitize.
func debugRejected(*Kernel, gen.Point) {}
