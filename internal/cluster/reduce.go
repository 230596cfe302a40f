package cluster

import (
	"fmt"

	"repro/internal/mergetree"
	"repro/internal/registry"
	"repro/internal/window"
)

// Reduce merges encoded summary frames of one family into a single
// summary through window.Reduce — the one frame reduce, shared with the
// roll-up plane: each frame decoded into registry scratch and folded
// into a deterministic binary-counter tree as it arrives, so a fan-in
// computed by any node over the same frame order is byte-identical —
// and returns the
// surviving summary together with its catalog entry, resolved from the
// first frame's kind tag. The caller owns the result and should recycle
// it with ent.PutScratch when done.
//
// Frame order matters only for merge-order-sensitive families' exact
// bytes, never for their guarantees (the PODS'12 theorem); callers
// that want cross-node determinism fix the order (the server's fan-in
// uses peer-list order).
func Reduce(frames [][]byte) (*registry.Entry, any, error) {
	ent, err := family(frames)
	if err != nil {
		return nil, nil, err
	}
	merged, err := window.Reduce(ent, frames)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: fan-in: %w", err)
	}
	return ent, merged, nil
}

// ReduceEncoded is Reduce re-encoded: the fan-in answer as a wire
// frame plus its kind name, the shape a PULL-style reply needs.
func ReduceEncoded(frames [][]byte) (string, []byte, error) {
	ent, err := family(frames)
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

// family resolves the catalog entry a fan-in reduces under from the
// first frame's kind tag; a frame of another family fails its decode.
func family(frames [][]byte) (*registry.Entry, error) {
	if len(frames) == 0 {
		return nil, mergetree.ErrNoParts
	}
	return registry.FromFrame(frames[0])
}
