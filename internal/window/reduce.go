package window

import "fmt"

// Reduce merges encoded frames of one family into a single summary —
// the one frame reduce the system has: the plane's roll-ups and query
// covers and the cluster fan-in (cluster.ReduceEncoded) all come here,
// so who picked the merge tree (ladder, peer list, client) never
// changes how it is folded. It folds as it decodes, on the calling goroutine: frame
// i is decoded into a pooled scratch summary (in place: a scratch keeps
// its storage, and one whose decode fails goes back to the pool as it
// is) and pushed on a stack of partial folds; while the top two cover
// equal numbers of frames, the right one is merged into the left. At
// the end the stack folds right to left. That is the binary-counter
// tree of the paper's logarithmic technique (§3.2), and the tree of a
// round-by-round pairing — (2i, 2i+1) into 2i, an odd survivor carried
// — so the same frames in the same order reduce to the same bytes on
// every node, with at most ⌈log2 n⌉+1 summaries decoded at once. The
// caller owns the result and must PutScratch it; the intermediates are
// recycled here.
func Reduce(ops Ops, frames [][]byte) (any, error) {
	type fold struct {
		s      any
		frames int // how many frames s covers
	}
	var buf [16]fold
	stack := buf[:0]
	// release hands every summary on the stack back, a merged-into one
	// and one whose decode failed too: that is the state DecodeInto's
	// contract covers — a receiver with half a merge in it decodes the
	// next frame exactly as a fresh one would.
	release := func(err error) (any, error) {
		for _, f := range stack {
			ops.PutScratch(f.s)
		}
		return nil, err
	}
	// mergeTop folds the top of the stack into the summary under it.
	mergeTop := func() error {
		top := len(stack) - 1
		if err := ops.Merge(stack[top-1].s, stack[top].s); err != nil {
			return fmt.Errorf("merging %d frames (%s): %w", len(frames), ops.Name(), err)
		}
		ops.PutScratch(stack[top].s)
		stack[top-1].frames += stack[top].frames
		stack = stack[:top]
		return nil
	}
	for i, f := range frames {
		stack = append(stack, fold{s: ops.GetScratch(), frames: 1})
		if err := ops.DecodeInto(stack[len(stack)-1].s, f); err != nil {
			return release(fmt.Errorf("decoding frame %d/%d (%s): %w", i+1, len(frames), ops.Name(), err))
		}
		for len(stack) > 1 && stack[len(stack)-2].frames == stack[len(stack)-1].frames {
			if err := mergeTop(); err != nil {
				return release(err)
			}
		}
	}
	if len(stack) == 0 {
		return nil, fmt.Errorf("merging 0 frames (%s): nothing to reduce", ops.Name())
	}
	for len(stack) > 1 {
		if err := mergeTop(); err != nil {
			return release(err)
		}
	}
	return stack[0].s, nil
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
