package epsapprox

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/exact"
	"repro/internal/gen"
)

// MarshalBinary implements encoding.BinaryMarshaler. The RNG state is
// re-derived so a decoded summary continues a deterministic sequence.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header (size, box, n, seed, lengths) plus 16 bytes per stored
	// point and a length uvarint per block. Only points travel; keys
	// are recomputed by the decoder. The locals partial, blocks and b
	// are the names the committed wire schema labels these fields by.
	partial, blocks := s.partial.pts, s.blocks
	w.Grow(4*10 + 4*8 + len(blocks)*10 + s.Size()*16)
	w.Int(s.s)
	w.Float64(s.box.X0)
	w.Float64(s.box.Y0)
	w.Float64(s.box.X1)
	w.Float64(s.box.Y1)
	w.Uint64(s.n)
	w.Uint64(s.rng.State())
	w.Int(len(partial))
	for _, p := range partial {
		w.Float64(p.X)
		w.Float64(p.Y)
	}
	w.Int(len(blocks))
	for _, level := range blocks {
		b := level.pts
		w.Int(len(b))
		for _, p := range b {
			w.Float64(p.X)
			w.Float64(p.Y)
		}
	}
	return codec.EncodeFrame(codec.KindRangeCount, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Points decode
// into storage from a borrowed free list, their Morton keys computed
// as they arrive; once the frame is validated the receiver's previous
// blocks join the free list in their turn. A pooled decode target
// therefore stops allocating after its first few frames, and a
// rejected frame leaves the receiver's contents untouched.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRangeCount, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	size := r.Int()
	box := exact.Rect{X0: r.Float64(), Y0: r.Float64(), X1: r.Float64(), Y1: r.Float64()}
	n := r.Uint64()
	seed := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 || uint64(size) > maxBlockSize || !(box.X1 > box.X0) || !(box.Y1 > box.Y0) {
		return errHeader()
	}
	// Stage the frame beside the live contents, in storage from the
	// free list; every staged block goes back there unless the frame
	// is accepted.
	rs := lender.Get()
	var partial block
	blocks := rs.stage[:0]
	accepted := false
	defer func() {
		if !accepted {
			rs.retire(partial)
			for _, b := range blocks {
				rs.retire(b)
			}
		}
		clear(blocks)
		rs.stage = blocks[:0]
		lender.Put(rs)
	}()

	np := r.ArrayLen(16)
	if r.Err() != nil {
		return r.Err()
	}
	if np >= size {
		return errPartial(np, size)
	}
	// Scratch and blocks are sized only by counts ArrayLen has checked
	// against the bytes left: the header's size alone reserves nothing.
	partial = rs.block(np, size)
	rs.coords = codec.Resize(rs.coords, 2*np)
	r.Float64s(rs.coords[:2*np])
	partial.addCoords(box, rs.coords)
	nb := r.ArrayLen(1)
	if r.Err() != nil {
		return r.Err()
	}
	// A block at level i weighs size·2^i, so levels past 64 cannot be
	// counted in n — and a frame may not claim a level table larger
	// than any valid summary's before sending a single point for it.
	if nb > maxLevels {
		return errLevels(nb)
	}
	for i := 0; i < nb; i++ {
		bl := r.ArrayLen(16)
		if r.Err() != nil {
			return r.Err()
		}
		if bl == 0 {
			blocks = append(blocks, block{})
			continue
		}
		if bl != size {
			return errBlock(i, bl, size)
		}
		b := rs.block(bl, bl)
		rs.coords = codec.Resize(rs.coords, 2*bl)
		r.Float64s(rs.coords[:2*bl])
		b.addCoords(box, rs.coords)
		blocks = append(blocks, b)
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if err := checkShape(size, n, partial, blocks); err != nil {
		return errInvalid(err)
	}

	accepted = true
	rs.retire(s.partial)
	for _, b := range s.blocks {
		rs.retire(b)
	}
	clear(s.blocks)
	s.s, s.n, s.box = size, n, box
	s.partial, s.blocks = partial, append(s.blocks[:0], blocks...)
	if s.rng == nil {
		s.rng = gen.NewRNG(seed)
	} else {
		*s.rng = *gen.NewRNG(seed)
	}
	return nil
}

// Decode errors live outside UnmarshalBinary so the hot path carries
// no fmt call.
func errHeader() error { return fmt.Errorf("epsapprox: invalid frame header") }
func errPartial(np, size int) error {
	return fmt.Errorf("epsapprox: partial %d exceeds block size %d", np, size)
}
func errLevels(nb int) error {
	return fmt.Errorf("epsapprox: %d block levels, at most %d can carry weight", nb, maxLevels)
}
func errBlock(i, bl, size int) error {
	return fmt.Errorf("epsapprox: block %d has %d points, want %d", i, bl, size)
}
func errInvalid(err error) error { return fmt.Errorf("epsapprox: decoded summary invalid: %w", err) }
