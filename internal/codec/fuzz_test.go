package codec

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// FuzzDecodeFrame: no input may panic the frame decoder, and every
// frame the encoder produces must decode back to the same payload.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFrame(KindMisraGries, nil))
	f.Add(EncodeFrame(KindGK, []byte("some payload")))
	f.Add([]byte("MSUM\x01\x01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for kind := KindMisraGries; int(kind) < KindCount; kind++ {
			payload, err := DecodeFrame(kind, data)
			if err != nil {
				continue
			}
			round := EncodeFrame(kind, payload)
			got, err := DecodeFrame(kind, round)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
		}
	})
}

// FuzzReader: arbitrary payload bytes must never panic the primitive
// readers, and every run read must agree with the loop of scalar reads
// it replaces — same values, same bytes consumed, an error exactly when
// the loop has one (or, for the small-uvarint run, when an element is
// out of range or not in shortest form, which the loop cannot see).
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A nested-frame byte that is not a byte (0x4d + 256: topk used to
	// keep its low eight bits) and an HLL register padded to two bytes
	// (5 as 0x85 0x00): both are run errors.
	f.Add([]byte{0x03, 0xcd, 0x02, 0x00, 0x00})
	f.Add([]byte{0x03, 0x85, 0x00, 0x05, 0x05})
	// Ten-byte uvarints (a negative counter's raw bits), which the run
	// reads a word at a time.
	f.Add(append([]byte{0x02}, bytes.Repeat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		r.Uint64()
		r.Int()
		r.Bool()
		r.Float64()
		r.ArrayLen(8)
		_ = r.Finish()

		if len(data) == 0 {
			return
		}
		n, body := int(data[0]%17), data[1:]

		run, loop := NewReader(body), NewReader(body)
		got, want := make([]uint64, n), make([]uint64, n)
		sum, ok := run.Uint64s(got)
		var wantSum, carry, wrap uint64
		for i := range want {
			want[i] = loop.Uint64()
			wantSum, carry = bits.Add64(wantSum, want[i], 0)
			wrap |= carry
		}
		agree(t, "Uint64s", run, loop, loop.Err() == nil && (!slices.Equal(got, want) || sum != wantSum || ok != (wrap == 0)))

		run, loop = NewReader(body), NewReader(body)
		gotI := make([]int64, n)
		run.Int64s(gotI)
		for i := range want {
			want[i] = loop.Uint64()
		}
		agree(t, "Int64s", run, loop, loop.Err() == nil && !slices.EqualFunc(gotI, want, func(a int64, b uint64) bool { return uint64(a) == b }))

		run, loop = NewReader(body), NewReader(body)
		gotF, wantF := make([]float64, n), make([]float64, n)
		run.Float64s(gotF)
		for i := range wantF {
			wantF[i] = loop.Float64()
		}
		agree(t, "Float64s", run, loop, loop.Err() == nil && !slices.EqualFunc(gotF, wantF, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }))

		for _, max := range []uint8{64, 127, 128, 255} {
			run, loop = NewReader(body), NewReader(body)
			gotB := make([]uint8, n)
			run.Uint8s(gotB, max)
			canonical := true
			for i := range want {
				before := loop.Remaining()
				want[i] = loop.Uint64()
				var shortest Buffer
				shortest.Uint64(want[i])
				canonical = canonical && want[i] <= uint64(max) && before-loop.Remaining() == shortest.Len()
			}
			if loop.Err() != nil || !canonical {
				if run.Err() == nil {
					t.Fatalf("Uint8s(max %d) accepted what the loop rejects or cannot represent", max)
				}
				continue
			}
			agree(t, "Uint8s", run, loop, !slices.EqualFunc(gotB, want, func(a uint8, b uint64) bool { return uint64(a) == b }))
		}
	})
}

// agree fails the test unless a run read and its scalar loop ended the
// same way: both in error, or neither and at the same offset with the
// same values.
func agree(t *testing.T, what string, run, loop *Reader, valuesDiffer bool) {
	t.Helper()
	if (run.Err() == nil) != (loop.Err() == nil) {
		t.Fatalf("%s: run error %v, loop error %v", what, run.Err(), loop.Err())
	}
	if run.Err() == nil && (valuesDiffer || run.Remaining() != loop.Remaining()) {
		t.Fatalf("%s: run and loop disagree (remaining %d vs %d)", what, run.Remaining(), loop.Remaining())
	}
}
