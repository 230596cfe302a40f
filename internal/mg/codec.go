package mg

import (
	"fmt"
	"math/bits"

	"repro/internal/codec"
	"repro/internal/core"
)

// MarshalBinary encodes the summary in the library's framed wire
// format (see package codec). It implements encoding.BinaryMarshaler.
// The payload is built in a pooled, pre-sized buffer: steady-state
// encoding allocates only the returned frame.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Worst-case uvarint sizing: header (k, n, dec, len) plus two
	// uvarints per counter.
	w.Grow(4*10 + len(s.items)*2*10)
	w.Int(s.k)
	w.Uint64(s.n)
	w.Uint64(s.dec)
	cs := s.Counters()
	w.Int(len(cs))
	for _, c := range cs {
		w.Uint64(uint64(c.Item))
		w.Uint64(c.Count)
	}
	return codec.EncodeFrame(codec.KindMisraGries, w.Bytes()), nil
}

// UnmarshalBinary decodes a summary previously encoded with
// MarshalBinary, replacing the receiver's contents. It implements
// encoding.BinaryUnmarshaler. Counters go straight into the receiver's
// own storage, emptied first and regrown only when the frame holds more
// than it has room for, so a reused receiver (any k, any contents; the
// zero value too) allocates nothing. The frame must keep the laws
// every merge keeps (checkInvariants): an undercount dec of at most
// n/(k+1) and counters that together carry at most n. A frame rejected
// by a header check leaves the receiver untouched; one rejected among
// its counters leaves it empty.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindMisraGries, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	k := r.Int()
	n := r.Uint64()
	dec := r.Uint64()
	m := r.ArrayLen(2)
	if r.Err() != nil {
		return r.Err()
	}
	if k < 1 {
		return fmt.Errorf("mg: k must be >= 1, have %d", k)
	}
	if m > k {
		return fmt.Errorf("mg: %d counters exceed k=%d", m, k)
	}
	if bound := core.MGBound(n, k); dec > bound {
		return fmt.Errorf("mg: dec=%d exceeds n/(k+1)=%d", dec, bound)
	}
	s.k, s.n, s.dec = k, n, dec
	s.clearTable()
	s.ensure(m)
	var sum, carry uint64
	for i := 0; i < m; i++ {
		item := core.Item(r.Uint64())
		count := r.Uint64()
		if r.Err() != nil {
			break
		}
		if sum, carry = bits.Add64(sum, count, 0); carry != 0 || sum > n {
			s.Reset()
			return fmt.Errorf("mg: counters carry more than n=%d", n)
		}
		if err := s.put(item, count); err != nil {
			s.Reset()
			return err
		}
	}
	if err := r.Finish(); err != nil {
		s.Reset()
		return err
	}
	debugAssert(s)
	return nil
}
