package kernel

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/gen"
)

// MarshalBinary implements encoding.BinaryMarshaler. The payload is
// built in a pooled, pre-sized buffer.
func (k *Kernel) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header plus per-slot presence byte and up to three floats.
	w.Grow(2*10 + 2*k.m*(1+3*8))
	w.Int(k.m)
	w.Uint64(k.n)
	for slot := 0; slot < 2*k.m; slot++ {
		w.Bool(k.has[slot])
		if k.has[slot] {
			w.Float64(k.best[slot].X)
			w.Float64(k.best[slot].Y)
			w.Float64(k.bestDot[slot])
		}
	}
	return codec.EncodeFrame(codec.KindKernel, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (k *Kernel) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindKernel, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	m := r.Int()
	n := r.Uint64()
	if r.Err() != nil {
		return r.Err()
	}
	if m < 2 || 2*m > r.Remaining()+1 {
		// Each slot needs at least its presence byte.
		return fmt.Errorf("kernel: implausible direction count %d", m)
	}
	out := New(m)
	out.n = n
	out.trust = decoded
	for slot := 0; slot < 2*m; slot++ {
		if r.Bool() {
			out.has[slot] = true
			out.best[slot] = gen.Point{X: r.Float64(), Y: r.Float64()}
			out.bestDot[slot] = r.Float64()
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	*k = *out
	return nil
}
