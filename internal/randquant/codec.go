package randquant

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/levels"
)

// MarshalBinary encodes the summary. It implements
// encoding.BinaryMarshaler. The RNG state is part of the encoding so a
// decoded summary continues the same deterministic random sequence.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	bounded := s.l > 0
	w.Bool(bounded)
	w.Int(s.lv.S)
	if bounded {
		w.Int(s.l)
		w.Int(s.lv.Ell)
	}
	s.lv.Encode(w, 8, putFloats)
	return codec.EncodeFrame(codec.KindRandQuant, w.Bytes()), nil
}

// putFloats writes a run's samples, 8 bytes each.
func putFloats(w *codec.Buffer, r run) {
	for _, v := range r.Keys {
		w.Float64(v)
	}
}

// getFloats reads a run's samples from their bytes.
func getFloats(b []byte, dst run) { codec.NewReader(b).Float64s(dst.Keys) }

// UnmarshalBinary decodes a summary previously encoded with
// MarshalBinary. It implements encoding.BinaryUnmarshaler. The
// receiver — in any state, the zero value included — takes its mode
// (plain or bounded) from the frame's flag byte and decodes the level
// table into its own storage as levels.Stack.Decode does, so a pooled
// decode target stops allocating after its first few frames. A frame
// rejected by a header check leaves the receiver untouched; one
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
	if r.Err() != nil {
		return r.Err()
	}
	if size < 1 || (bounded && l < 1) || ell >= levels.MaxLevels {
		return fmt.Errorf("randquant: invalid header (s=%d,l=%d,ell=%d) in frame", size, l, ell)
	}
	reused := s.lv.RNG != nil
	s.lv.S, s.lv.Ell, s.l = size, ell, l
	rs := lender.Get()
	err = s.lv.Decode(rs, r, 8, getFloats, s.checkInvariants)
	lender.Put(rs)
	if err != nil {
		return fmt.Errorf("randquant: invalid frame: %w", err)
	}
	debugAssertDecoded(s, data, reused)
	return nil
}
