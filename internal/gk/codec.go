package gk

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
)

// MarshalBinary encodes the summary (pending inserts are flushed
// first). It implements encoding.BinaryMarshaler.
//
// The flush is an idempotent canonicalization, not an impurity: the
// buffered inserts are part of the logical state and must land in the
// tuple list before it is serialized, and flushing twice is a no-op.
// Callers hold exclusive access during encode (the merge plane
// encodes under the slot lock), so the mutation cannot race.
func (s *Summary) MarshalBinary() ([]byte, error) {
	s.flush()
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// eps float + n + len, then (float, g, delta) per tuple.
	w.Grow(8 + 2*10 + len(s.tuples)*(8+2*10))
	w.Float64(s.eps)
	w.Uint64(s.n)
	w.Int(len(s.tuples))
	for _, t := range s.tuples {
		w.Float64(t.v)
		w.Uint64(t.g)
		w.Uint64(t.delta)
	}
	return codec.EncodeFrame(codec.KindGK, w.Bytes()), nil
}

// UnmarshalBinary decodes a summary previously encoded with
// MarshalBinary, replacing the receiver's contents. It implements
// encoding.BinaryUnmarshaler. Tuples are read into a borrowed run,
// which once the frame is validated trades places with the receiver's
// tuples if it has room for at most twice them and is copied into the
// receiver's own storage if not, so a reused receiver — any eps, any contents; the zero value too —
// allocates nothing, and a rejected frame leaves it untouched. A frame is held to
// the invariants the sweeps in flush, Merge and the queries assume
// (checkTuples): a NaN or decreasing value, g = 0 or g+Δ above
// ⌊2εn⌋+1 is rejected, as is a weight other than n.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindGK, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	eps := r.Float64()
	n := r.Uint64()
	m := r.ArrayLen(10)
	if r.Err() != nil {
		return r.Err()
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("gk: invalid eps %v in frame", eps)
	}
	rs := lender.Get()
	defer lender.Put(rs)
	tuples := codec.Resize(rs.tuples, m)[:0]
	for i := 0; i < m; i++ {
		tuples = append(tuples, tuple{v: r.Float64(), g: r.Uint64(), delta: r.Uint64()})
	}
	rs.tuples = tuples[:0]
	if err := r.Finish(); err != nil {
		return err
	}
	sumG, err := checkTuples(tuples, threshold(eps, n))
	if err != nil {
		return fmt.Errorf("gk: invalid frame: %w", err)
	}
	if sumG != n {
		return fmt.Errorf("gk: frame weight %d != n %d", sumG, n)
	}
	s.eps, s.bufCap, s.n = eps, bufCapFor(eps), n
	if core.Fits(cap(tuples), m, m) { // the run fits: trade places
		s.tuples, rs.tuples = tuples, s.tuples[:0]
	} else {
		s.tuples = append(s.tuples[:0], tuples...)
	}
	s.buf = s.buf[:0]
	return nil
}
