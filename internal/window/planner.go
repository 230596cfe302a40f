package window

import "fmt"

// Cover is a planner result: sealed segments whose epoch ranges are
// pairwise disjoint and union exactly to the planned [From, To] range
// minus empty epochs. Segments appear in ascending epoch order.
type Cover struct {
	From, To uint64
	Segments []*Segment
}

// plan decomposes the sealed epoch range [from, to] into the minimal
// cover of stored segments: at each position it takes the segment of
// the coarsest level that (a) starts aligned at the position and (b)
// ends inside the range. Every level partitions the timeline into
// fan^ℓ-aligned blocks, so any exact cover must break where this
// greedy walk breaks and the coarsest choice is minimal; and Advance
// stores a block with the seal that completes it, so "stored" means
// "non-empty" and the cover is the canonical aligned decomposition — a
// function of the range and what was written. O(pieces · levels), at
// most ~2·(fan−1) pieces per level: O(log n) for an n-epoch range.
//
// A position whose level-0 block is retained but unsealed was an empty
// epoch and is skipped; a position older than every level's horizon
// fails with a description of the oldest answerable granularity.
func (st *segStore) plan(from, to, now uint64) (Cover, error) {
	if from < 1 || to < from {
		return Cover{}, fmt.Errorf("window: bad epoch range [%d, %d]", from, to)
	}
	if to >= now {
		return Cover{}, fmt.Errorf("window: epoch range [%d, %d] reaches past the last sealed epoch %d", from, to, now-1)
	}
	top := len(st.levels) - 1
	cov := Cover{From: from, To: to}
	for pos := from; pos <= to; {
		var seg *Segment
		for level := top; level >= 0; level-- {
			span := st.ladder.span(level)
			if (pos-1)%span != 0 || pos+span-1 > to {
				continue // not aligned here, or overshoots the range
			}
			if s, ok := st.get(level, pos); ok {
				seg = s
				break
			}
		}
		if seg != nil {
			cov.Segments = append(cov.Segments, seg)
			pos = seg.To + 1
			continue
		}
		// Nothing sealed at pos. Find the finest level whose aligned
		// block at pos both fits the range and is still retained: a
		// retained block with no sealed segment summarized no data
		// (roll-ups seal every non-empty completed block), so the
		// planner skips it. With no such level, the range has aged
		// past every retained resolution and the cover fails.
		skipped := false
		for level := 0; level <= top; level++ {
			span := st.ladder.span(level)
			if (pos-1)%span != 0 {
				continue
			}
			blockTo := pos + span - 1
			if blockTo > to {
				break // coarser blocks only overshoot further
			}
			if st.retained(level, blockTo, now) {
				pos = blockTo + 1
				skipped = true
				break
			}
		}
		if skipped {
			continue
		}
		return Cover{}, fmt.Errorf(
			"window: epoch %d evicted at every level covering [%d, %d]; oldest retained epoch is %d",
			pos, from, to, st.oldestRetained(now))
	}
	return cov, nil
}

// oldestRetained returns the oldest epoch any level still retains.
func (st *segStore) oldestRetained(now uint64) uint64 {
	oldest := now
	for _, segs := range st.levels {
		for _, seg := range segs {
			if seg.From < oldest {
				oldest = seg.From
			}
		}
	}
	return oldest
}
