package randquant

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/gen"
)

// MarshalBinary encodes the summary. It implements
// encoding.BinaryMarshaler. The RNG state is part of the encoding so a
// decoded summary continues the same deterministic random sequence.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Flag + header uvarints, 8 bytes per stored sample, one length
	// uvarint per block.
	w.Grow(1 + 6*10 + len(s.partial)*8 + len(s.blocks)*(10+s.s*8))
	bounded := s.l > 0
	w.Bool(bounded)
	w.Int(s.s)
	if bounded {
		w.Int(s.l)
		w.Int(s.ell)
	}
	w.Uint64(s.n)
	w.Uint64(s.rng.State()) // decoded copy resumes the same stream
	w.Int(len(s.partial))
	for _, v := range s.partial {
		w.Float64(v)
	}
	w.Int(len(s.blocks))
	for _, b := range s.blocks {
		w.Int(len(b))
		for _, v := range b {
			w.Float64(v)
		}
	}
	return codec.EncodeFrame(codec.KindRandQuant, w.Bytes()), nil
}

// UnmarshalBinary decodes a summary previously encoded with
// MarshalBinary. It implements encoding.BinaryUnmarshaler. The
// receiver — in any state, the zero value included — first retires
// every block it holds to a borrowed free list and then reads the
// frame's partial buffer and blocks, one float run each, into its
// partial buffer and recycled block storage; its RNG is reseeded from the frame, and its mode (plain or
// bounded) is whatever the frame's flag byte says. A pooled decode
// target therefore stops allocating after its first few frames. A
// frame rejected by a header check leaves the receiver untouched; one
// rejected later leaves it empty.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRandQuant, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	bounded := r.Bool()
	size := r.Int()
	l, ell := 0, 0
	if bounded {
		l = r.Int()
		ell = r.Int()
	}
	n := r.Uint64()
	seed := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 || (bounded && l < 1) || ell >= maxLevels {
		return fmt.Errorf("randquant: invalid header (s=%d,l=%d,ell=%d) in frame", size, l, ell)
	}
	np := r.ArrayLen(8)
	if r.Err() != nil {
		return r.Err()
	}
	if np >= size {
		return fmt.Errorf("randquant: partial buffer %d exceeds block size %d", np, size)
	}
	// From here on the receiver is overwritten; whatever stops the
	// decode short leaves it empty.
	reused := s.rng != nil
	rs := lender.Get()
	s.reset(rs)
	accepted := false
	defer func() {
		if !accepted {
			s.reset(rs)
		}
		lender.Put(rs)
	}()
	s.s, s.l, s.ell = size, l, ell
	if s.rng == nil {
		s.rng = gen.NewRNG(seed)
	} else {
		*s.rng = *gen.NewRNG(seed)
	}
	s.partial = codec.Resize(s.partial, np)
	r.Float64s(s.partial)
	nb := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	if nb > maxLevels {
		return fmt.Errorf("randquant: %d levels in frame, at most %d", nb, maxLevels)
	}
	for i := 0; i < nb; i++ {
		bl := r.ArrayLen(8)
		if r.Err() != nil {
			return r.Err()
		}
		if bl == 0 {
			s.blocks = append(s.blocks, nil)
			continue
		}
		if bl != size {
			return fmt.Errorf("randquant: block %d has %d samples, want %d", i, bl, size)
		}
		b := rs.block(bl, 2*bl)
		s.blocks = append(s.blocks, b)
		r.Float64s(b)
	}
	if err := r.Finish(); err != nil {
		return err
	}
	// Sortedness, no block below ell, the level budget, and exact
	// weight while ell == 0.
	s.n = n
	if err := s.checkInvariants(); err != nil {
		return fmt.Errorf("randquant: invalid frame: %w", err)
	}
	accepted = true
	debugAssertDecoded(s, data, reused)
	return nil
}
