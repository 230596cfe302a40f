package distinct

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
)

// views lends MarshalBinary its ascending copy of the hashes.
var views core.Pool[[]uint64]

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled, pre-sized buffer and the hashes are put in frame
// order in lent scratch: steady-state encoding allocates only the
// returned frame.
func (s *KMV) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	v := views.Get()
	defer views.Put(v)
	w.Grow(1 + 4*10 + len(s.hashes)*10)
	w.Bool(false) // kind: KMV
	w.Int(s.k)
	w.Uint64(s.seed)
	w.Uint64(s.n)
	hs := s.appendSorted((*v)[:0])
	*v = hs
	w.Int(len(hs))
	codec.Uvarints(w, hs)
	return codec.EncodeFrame(codec.KindKMV, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The hashes
// are read in one run into the receiver's own heap storage and the
// membership set is left for the first offer to rebuild, so a reused
// receiver (any k, any seed, any contents; the zero value too)
// allocates nothing. The hashes must be strictly ascending, the order
// MarshalBinary writes. A frame rejected by a header check leaves the
// receiver untouched; one rejected later leaves it empty.
func (s *KMV) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindKMV, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if r.Bool() {
		return fmt.Errorf("distinct: frame holds an HLL summary")
	}
	k := r.Int()
	seed := r.Uint64()
	n := r.Uint64()
	m := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	if k < 2 || m > k {
		return fmt.Errorf("distinct: invalid KMV frame (k=%d, m=%d)", k, m)
	}
	s.k, s.seed, s.n = k, seed, n
	s.hashes = codec.Resize(s.hashes, m)
	r.Uint64s(s.hashes)
	if err := r.Finish(); err != nil {
		s.reset()
		return err
	}
	if !s.adopt() {
		s.reset()
		return fmt.Errorf("distinct: KMV hashes not strictly ascending")
	}
	return nil
}

// adopt turns s.hashes, as read off the wire, into the max-heap of
// exactly those values; false unless they are strictly ascending, the
// one order the encoder writes. An ascending run reversed is a heap.
func (s *KMV) adopt() bool {
	hs := s.hashes
	for i := 1; i < len(hs); i++ {
		if hs[i-1] >= hs[i] {
			return false
		}
	}
	slices.Reverse(hs)
	s.stale = true
	return true
}

// reset empties s, keeping k, seed and storage.
func (s *KMV) reset() {
	s.n, s.hashes, s.stale = 0, s.hashes[:0], true
}

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled buffer pre-sized for the register file: each
// register is at most maxRho(p) < 128, one uvarint byte, so the file
// is one copy.
func (s *HLL) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Grow(1 + 3*10 + len(s.regs))
	w.Bool(true) // kind: HLL
	w.Int(int(s.p))
	w.Uint64(s.seed)
	w.Uint64(s.n)
	w.Uint8s(s.regs)
	return codec.EncodeFrame(codec.KindHLL, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Registers are
// at most maxRho(p), one byte each on the wire, so the register file
// is one copy into the receiver's own storage (regrown only when the
// precision differs), range-checked eight registers a step: a register
// above maxRho(p) is refused, which keeps maxRegs' law. A frame
// rejected by a header check leaves the receiver untouched; one
// rejected inside the register run leaves it empty.
func (s *HLL) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindHLL, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if !r.Bool() {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("distinct: frame holds a KMV summary")
	}
	p := r.Int()
	seed := r.Uint64()
	n := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if p < 4 || p > 18 {
		return fmt.Errorf("distinct: invalid HLL precision %d", p)
	}
	reused := s.regs != nil
	s.reshape(uint8(p), seed)
	s.n = n
	r.Uint8s(s.regs, maxRho(uint8(p)))
	if err := r.Finish(); err != nil {
		s.n = 0
		clear(s.regs)
		return err
	}
	debugAssertHLLDecoded(s, data, reused)
	return nil
}

// reshape gives s the precision, seed and register count of
// NewHLL(p, seed), in the storage it already has where that fits. The
// registers hold whatever they held: the decoder overwrites them all.
func (s *HLL) reshape(p uint8, seed uint64) {
	s.p, s.seed = p, seed
	s.regs = codec.Resize(s.regs, 1<<p)
}
