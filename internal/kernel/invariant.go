//go:build sanitize

package kernel

import "repro/internal/gen"

// debugRejected panics if the scan would have handed a slot to a point
// the interior filter dismissed — the one way the filter could change
// a kernel's state.
func debugRejected(k *Kernel, p gen.Point) {
	if k.beats(p, 0) {
		panic("kernel: sanitize: interior filter rejected a point that wins a slot")
	}
}
