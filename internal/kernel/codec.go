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
	// Header plus per-slot presence byte and three floats per slot held.
	w.Grow(2*10 + 2*k.m + len(k.has)*3*8)
	w.Int(k.m)
	w.Uint64(k.n)
	for slot := 0; slot < 2*k.m; slot++ {
		has := slot < len(k.has) && k.has[slot]
		w.Bool(has)
		if has {
			w.Float64(k.best[slot].X)
			w.Float64(k.best[slot].Y)
			w.Float64(k.bestDot[slot])
		}
	}
	return codec.EncodeFrame(codec.KindKernel, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. A kernel
// holds a point in every slot from its first point on, so a frame's
// slots must all be filled when its n is not 0 and all be empty when it
// is: the frame then holds at least 25 bytes for each slot the receiver
// stores, and an empty one makes the receiver store none (see grow).
// Slots are written into the receiver's own arrays, and its direction
// grid is recomputed only when the frame's m differs, so a reused
// receiver (any m, any contents, a cached polygon; the zero value too)
// allocates nothing. The interior filter starts over as a fresh
// decode's does: no polygon and no box, the frame's points untrusted
// until checked. A frame rejected by a header check leaves the receiver
// untouched; one that fails among its slots leaves it empty.
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
	full := n != 0
	perSlot := 1 // the presence byte
	if full {
		perSlot += 3 * 8
	}
	if m < 2 || 2*m*perSlot > r.Remaining() {
		return fmt.Errorf("kernel: implausible direction count %d for n=%d", m, n)
	}
	k.m, k.n = m, n
	k.has, k.best, k.bestDot = k.has[:0], k.best[:0], k.bestDot[:0]
	if full {
		k.grow()
	}
	for slot := 0; slot < 2*m; slot++ {
		if r.Bool() != full {
			err = fmt.Errorf("kernel: slot %d is not as filled as n=%d has it", slot, n)
			break
		}
		if full {
			k.has[slot] = true
			k.best[slot] = gen.Point{X: r.Float64(), Y: r.Float64()}
			k.bestDot[slot] = r.Float64()
		}
	}
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		k.Reset()
		return err
	}
	k.hull, k.box, k.scale, k.margin, k.fresh, k.trust = k.hull[:0], box{}, 0, 0, false, decoded
	return nil
}
