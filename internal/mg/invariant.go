package mg

import (
	"fmt"

	"repro/internal/core"
)

// checkInvariants reports the first Misra–Gries law s breaks — the
// structural invariants the PODS'12 mergeability proof rests on:
//
//   - at most k counters are monitored, each found by the index at
//     its own position (or lookups would silently duplicate it);
//   - every monitored count is positive;
//   - the monitored mass never exceeds the summarized weight n
//     (MG never overestimates);
//   - the undercount certificate dec never exceeds n/(k+1)
//     (Theorem 2.2's error bound, preserved by every merge order).
//
// It holds only where the summary is quiescent — after an update,
// merge, batch or decode completes — not mid-batch, where deferred
// pruning intentionally lets the table overshoot k.
func (s *Summary) checkInvariants() error {
	if len(s.items) > s.k {
		return fmt.Errorf("%d counters exceed k=%d", len(s.items), s.k)
	}
	if err := s.index.Check(); err != nil {
		return err
	}
	if len(s.counts) != len(s.items) || s.index.Len() != len(s.items) {
		return fmt.Errorf("%d items, %d counts, %d indexed", len(s.items), len(s.counts), s.index.Len())
	}
	var sum uint64
	for i, v := range s.counts {
		if v == 0 {
			return fmt.Errorf("item %d has count 0", s.items[i])
		}
		sum += v
		if p := s.index.Find(s.items[i]); p != int32(i) {
			return fmt.Errorf("item %d at %d is indexed at %d", s.items[i], i, p)
		}
	}
	if sum > s.n {
		return fmt.Errorf("monitored mass %d exceeds n=%d (overestimation)", sum, s.n)
	}
	if bound := core.MGBound(s.n, s.k); s.dec > bound {
		return fmt.Errorf("dec=%d exceeds n/(k+1)=%d (n=%d, k=%d)", s.dec, bound, s.n, s.k)
	}
	return nil
}

// debugAssert panics if s breaks a law, in a core.Sanitize build.
func debugAssert(s *Summary) {
	if !core.Sanitize {
		return
	}
	if err := s.checkInvariants(); err != nil {
		panic("mg: sanitize: " + err.Error())
	}
}

// debugAssertSampled runs debugAssert on a deterministic 1-in-64
// sample of calls (keyed on n), keeping per-item paths usable under
// the sanitize tag on large test streams.
func debugAssertSampled(s *Summary) {
	if core.Sanitize && s.n&63 == 0 {
		debugAssert(s)
	}
}
