//go:build sanitize

package mg

import (
	"fmt"

	"repro/internal/core"
)

// sanitizeEnabled reports whether this build carries the runtime
// invariant layer (`go test -tags sanitize`). See DESIGN.md.
const sanitizeEnabled = true

// debugAssert panics if s violates the Misra–Gries structural
// invariants the PODS'12 mergeability proof rests on:
//
//   - at most k counters are monitored;
//   - every monitored count is positive;
//   - the monitored mass never exceeds the summarized weight n
//     (MG never overestimates);
//   - the undercount certificate dec never exceeds n/(k+1)
//     (Theorem 2.2's error bound, preserved by every merge order).
//
// It must be called only at points where the summary is quiescent —
// after an update, merge, or batch completes — not mid-batch, where
// deferred pruning intentionally lets the map overshoot k.
func debugAssert(s *Summary) {
	if len(s.items) > s.k {
		panic(fmt.Sprintf("mg: sanitize: %d counters exceed k=%d", len(s.items), s.k))
	}
	if err := s.index.Check(); err != nil {
		panic("mg: sanitize: " + err.Error())
	}
	if len(s.counts) != len(s.items) || s.index.Len() != len(s.items) {
		panic(fmt.Sprintf("mg: sanitize: %d items, %d counts, %d indexed", len(s.items), len(s.counts), s.index.Len()))
	}
	var sum uint64
	for i, v := range s.counts {
		if v == 0 {
			panic(fmt.Sprintf("mg: sanitize: item %d has count 0", s.items[i]))
		}
		sum += v
		// Each counter must be found at its own position, or lookups
		// would silently duplicate it.
		if p := s.index.Find(s.items[i]); p != int32(i) {
			panic(fmt.Sprintf("mg: sanitize: item %d at %d is indexed at %d", s.items[i], i, p))
		}
	}
	if sum > s.n {
		panic(fmt.Sprintf("mg: sanitize: monitored mass %d exceeds n=%d (overestimation)", sum, s.n))
	}
	if bound := core.MGBound(s.n, s.k); s.dec > bound {
		panic(fmt.Sprintf("mg: sanitize: dec=%d exceeds n/(k+1)=%d (n=%d, k=%d)", s.dec, bound, s.n, s.k))
	}
}

// debugAssertSampled runs debugAssert on a deterministic 1-in-64
// sample of calls (keyed on n), keeping per-item paths usable under
// the sanitize tag on large test streams.
func debugAssertSampled(s *Summary) {
	if s.n&63 == 0 {
		debugAssert(s)
	}
}
