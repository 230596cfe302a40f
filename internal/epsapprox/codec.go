package epsapprox

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/exact"
)

// MarshalBinary implements encoding.BinaryMarshaler. The RNG state is
// re-derived so a decoded summary continues a deterministic sequence.
// Only points travel; keys are recomputed by the decoder.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(s.lv.S)
	w.Float64(s.box.X0)
	w.Float64(s.box.Y0)
	w.Float64(s.box.X1)
	w.Float64(s.box.Y1)
	s.lv.Encode(w, 16, putPoints)
	return codec.EncodeFrame(codec.KindRangeCount, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver
// — in any state, the zero value included — decodes the level table
// into its own storage as levels.Stack.Decode does, each point's Morton
// key computed as it arrives, so a pooled decode target stops
// allocating after its first few frames. A frame rejected by a header
// check leaves the receiver untouched; one rejected later leaves it
// empty.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRangeCount, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	size := r.Int()
	box := exact.Rect{X0: r.Float64(), Y0: r.Float64(), X1: r.Float64(), Y1: r.Float64()}
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 || uint64(size) > maxBlockSize || !(box.X1 > box.X0) || !(box.Y1 > box.Y0) {
		return fmt.Errorf("epsapprox: invalid frame header")
	}
	s.lv.S, s.box = size, box
	rs := lender.Get()
	err = s.lv.Decode(rs, r, 16, func(b []byte, dst run) { getPoints(b, dst, box) }, s.lv.Check)
	lender.Put(rs)
	if err != nil {
		return fmt.Errorf("epsapprox: invalid frame: %w", err)
	}
	return nil
}
