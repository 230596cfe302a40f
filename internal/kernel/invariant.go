package kernel

import (
	"repro/internal/core"
	"repro/internal/gen"
)

// debugRejected panics, in a core.Sanitize build, if the scan would
// have handed a slot to a point the interior filter dismissed — the
// one way the filter could change a kernel's state.
func debugRejected(k *Kernel, p gen.Point) {
	if core.Sanitize && k.beats(p, 0) {
		panic("kernel: sanitize: interior filter rejected a point that wins a slot")
	}
}
