package window

import (
	"fmt"
	"runtime"

	"repro/internal/mergetree"
)

// Reduce merges encoded frames of one family into a single summary —
// the one frame reduce the system has: the plane's roll-ups and query
// covers and the cluster fan-in (cluster.Reduce) all come here, so who
// picked the merge tree (ladder, peer list, client) never changes how
// it is folded. Every frame is decoded into a pooled scratch summary
// (in place: a scratch keeps its storage, and one whose decode fails
// goes back to the pool as it is) and the scratch summaries are folded
// with mergetree.Parallel's pairing reduction, a deterministic tree:
// the same frames in the same order reduce to the same bytes on every
// node and at every worker count. The caller owns the result and must
// PutScratch it; the intermediates are recycled here.
func Reduce(ops Ops, frames [][]byte) (any, error) {
	parts := make([]any, len(frames))
	for i, f := range frames {
		parts[i] = ops.GetScratch()
		if err := ops.DecodeInto(parts[i], f); err != nil {
			for _, s := range parts[:i+1] {
				ops.PutScratch(s)
			}
			return nil, fmt.Errorf("decoding frame %d/%d (%s): %w", i+1, len(frames), ops.Name(), err)
		}
	}
	acc, err := mergetree.Parallel(parts, reduceWorkers(len(parts)), ops.Merge)
	for _, s := range parts {
		// On error acc is nil and every part goes back: Parallel may leave
		// merged-into summaries in any state, and that is the state
		// DecodeInto's contract covers — a receiver with half a merge in
		// it decodes the next frame exactly as a fresh one would.
		if s != acc {
			ops.PutScratch(s)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("merging %d frames (%s): %w", len(frames), ops.Name(), err)
	}
	return acc, nil
}

// ReduceEncoded is Reduce re-encoded: the merged summary as one wire
// frame, the shape a sealed segment, a query answer and a fan-in reply
// all need.
func ReduceEncoded(ops Ops, frames [][]byte) ([]byte, error) {
	acc, err := Reduce(ops, frames)
	if err != nil {
		return nil, err
	}
	frame, err := ops.Encode(acc)
	ops.PutScratch(acc)
	return frame, err
}

// inlineParts is the piece count up to which a reduction runs on the
// calling goroutine: DefaultLadder's fan, so fan-sized roll-up blocks
// and small-cluster fan-ins pay no goroutine or barrier cost.
const inlineParts = 8

// reduceWorkers picks the mergetree.Parallel worker count: inline up
// to inlineParts pieces, up to GOMAXPROCS (capped at 8) for the long
// flat covers where the parallel tree pays.
func reduceWorkers(parts int) int {
	if parts <= inlineParts {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), 8)
}
