package randquant

import (
	"fmt"
	"sort"

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
	w.Grow(1 + 4*10 + len(s.partial)*8 + len(s.blocks)*(10+s.s*8))
	w.Bool(false) // not hybrid
	w.Int(s.s)
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
// every block it holds to its free list and then reads the frame's
// partial buffer and blocks, one float run each, into that recycled
// storage; its RNG is reseeded from the frame. A pooled decode target
// therefore stops allocating after its first few frames. A frame
// rejected by a header check leaves the receiver untouched; one
// rejected later leaves it empty.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRandQuant, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if r.Bool() {
		return fmt.Errorf("randquant: frame holds a hybrid summary")
	}
	size := r.Int()
	n := r.Uint64()
	seed := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 {
		return fmt.Errorf("randquant: invalid block size %d in frame", size)
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
	s.Reset()
	accepted := false
	defer func() {
		if !accepted {
			s.Reset()
		}
	}()
	s.s = size
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
		b := codec.Resize(s.spare(), bl)
		s.blocks = append(s.blocks, b)
		r.Float64s(b)
		if r.Err() == nil && !sort.Float64sAreSorted(b) {
			return fmt.Errorf("randquant: block %d not sorted", i)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if s.StoredWeight() != n {
		return fmt.Errorf("randquant: stored weight %d != n %d", s.StoredWeight(), n)
	}
	s.n = n
	accepted = true
	debugAssertDecoded(s, data, reused)
	return nil
}

// MarshalBinary encodes the hybrid summary. It implements
// encoding.BinaryMarshaler.
func (h *Hybrid) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Grow(1 + 6*10 + len(h.partial)*8 + len(h.blocks)*(10+h.s*8))
	w.Bool(true) // hybrid
	w.Int(h.s)
	w.Int(h.l)
	w.Int(h.ell)
	w.Uint64(h.n)
	w.Uint64(h.rng.State())
	w.Int(len(h.partial))
	for _, v := range h.partial {
		w.Float64(v)
	}
	w.Int(len(h.blocks))
	for _, b := range h.blocks {
		w.Int(len(b))
		for _, v := range b {
			w.Float64(v)
		}
	}
	return codec.EncodeFrame(codec.KindRandQuant, w.Bytes()), nil
}

// UnmarshalBinary decodes a hybrid summary. It implements
// encoding.BinaryUnmarshaler.
func (h *Hybrid) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRandQuant, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if !r.Bool() {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("randquant: frame holds a plain summary, not a hybrid")
	}
	size := r.Int()
	l := r.Int()
	ell := r.Int()
	n := r.Uint64()
	seed := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 || l < 1 || ell < 0 {
		return fmt.Errorf("randquant: invalid hybrid header (s=%d,l=%d,ell=%d)", size, l, ell)
	}
	out := NewHybrid(size, l, seed)
	out.ell = ell
	out.n = n
	np := r.ArrayLen(8)
	if r.Err() != nil {
		return r.Err()
	}
	if np >= size {
		return fmt.Errorf("randquant: partial buffer %d exceeds block size %d", np, size)
	}
	for i := 0; i < np; i++ {
		out.partial = append(out.partial, r.Float64())
	}
	nb := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	out.blocks = make([][]float64, nb)
	for i := 0; i < nb; i++ {
		bl := r.ArrayLen(8)
		if r.Err() != nil {
			return r.Err()
		}
		if bl == 0 {
			continue
		}
		if bl != size {
			return fmt.Errorf("randquant: block %d has %d samples, want %d", i, bl, size)
		}
		b := make([]float64, bl)
		for j := range b {
			b[j] = r.Float64()
		}
		if !sort.Float64sAreSorted(b) {
			return fmt.Errorf("randquant: block %d not sorted", i)
		}
		out.blocks[i] = b
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if err := out.checkInvariants(); err != nil {
		return fmt.Errorf("randquant: decoded hybrid invalid: %w", err)
	}
	*h = *out
	return nil
}
