package cluster

import (
	"fmt"

	"repro/internal/mergetree"
	"repro/internal/registry"
	"repro/internal/window"
)

// ReduceEncoded merges encoded summary frames of one family into a
// single wire frame through window.Reduce — the one frame reduce,
// shared with the roll-up plane: each frame decoded into registry
// scratch and folded into a deterministic binary-counter tree as it
// arrives, so a fan-in computed by any node over the same frame order
// is byte-identical — and returns it with its kind name, resolved from
// the first frame's kind tag: the shape a PULL-style reply needs.
//
// Frame order matters only for merge-order-sensitive families' exact
// bytes, never for their guarantees (the PODS'12 theorem); callers
// that want cross-node determinism fix the order (the server's fan-in
// uses peer-list order).
func ReduceEncoded(frames [][]byte) (string, []byte, error) {
	if len(frames) == 0 {
		return "", nil, mergetree.ErrNoParts
	}
	// A frame of another family than the first fails its decode.
	ent, err := registry.FromFrame(frames[0])
	if err != nil {
		return "", nil, err
	}
	// One frame needs no decode/merge/encode round-trip at all: the
	// peer's snapshot is already the answer.
	if len(frames) == 1 {
		return ent.Name(), frames[0], nil
	}
	out, err := window.ReduceEncoded(ent, frames)
	if err != nil {
		return "", nil, fmt.Errorf("cluster: fan-in: %w", err)
	}
	return ent.Name(), out, nil
}
