package distinct

import (
	"math/bits"

	"repro/internal/core"
)

// UpdateBatch observes one occurrence of every item in xs. The state
// is identical to calling Update(x) for each x in order.
func (s *KMV) UpdateBatch(xs []core.Item) {
	seed := s.seed
	for _, x := range xs {
		s.offer(hash64(seed, x))
	}
	s.n += uint64(len(xs))
	debugAssertKMV(s)
}

// UpdateBatch observes one occurrence of every item in xs. The state
// is identical to calling Update(x) for each x: the batch path inlines
// the hash and leading-zero computation with the precision and
// register slice held in registers.
func (s *HLL) UpdateBatch(xs []core.Item) {
	p := uint(s.p)
	seed := s.seed
	regs := s.regs
	for _, x := range xs {
		h := hash64(seed, x)
		idx := h >> (64 - p)
		rest := h<<p | uint64(1)<<(p-1) // ensure termination, as in Update
		rho := uint8(bits.LeadingZeros64(rest)) + 1
		if rho > regs[idx] {
			regs[idx] = rho
		}
	}
	s.n += uint64(len(xs))
	debugAssertHLL(s)
}
