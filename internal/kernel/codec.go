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

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Slots are
// written into the receiver's own arrays — every one of them, empty
// slots zeroed — and its direction grid is recomputed only when the
// frame's m differs, so a reused receiver (any m, any contents, a
// cached polygon; the zero value too) allocates nothing. The interior
// filter starts over as a fresh decode's does: no polygon and no box,
// the frame's points untrusted until checked. A frame rejected by a header check
// leaves the receiver untouched; one that fails among its slots leaves
// it empty.
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
	k.reshape(m)
	k.n = n
	for slot := 0; slot < 2*m; slot++ {
		if r.Bool() {
			k.has[slot] = true
			k.best[slot] = gen.Point{X: r.Float64(), Y: r.Float64()}
			k.bestDot[slot] = r.Float64()
		} else {
			k.has[slot], k.best[slot], k.bestDot[slot] = false, gen.Point{}, 0
		}
	}
	if err := r.Finish(); err != nil {
		k.Reset()
		return err
	}
	k.hull, k.box, k.scale, k.margin, k.fresh, k.trust = k.hull[:0], box{}, 0, 0, false, decoded
	return nil
}
