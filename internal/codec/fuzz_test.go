package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// it replaces — same values, same bytes consumed, the loop's error
// exactly when the loop has one (or, for the small-uvarint run, when an element is
// above its maximum, which the loop cannot see).
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
			inRange := true
			for i := range want {
				want[i] = loop.Uint64()
				inRange = inRange && want[i] <= uint64(max)
			}
			if loop.Err() != nil || !inRange {
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
// same way: both in the same error — a short payload or a malformed
// uvarint — or neither and at the same offset with the same values.
func agree(t *testing.T, what string, run, loop *Reader, valuesDiffer bool) {
	t.Helper()
	if run.Err() != loop.Err() {
		t.Fatalf("%s: run error %v, loop error %v", what, run.Err(), loop.Err())
	}
	if run.Err() == nil && (valuesDiffer || run.Remaining() != loop.Remaining()) {
		t.Fatalf("%s: run and loop disagree (remaining %d vs %d)", what, run.Remaining(), loop.Remaining())
	}
}

// FuzzRuns: every run writer appends exactly the bytes of the Uint64
// loop it replaces, whatever the buffer held before and whether or not
// it had room; and Reader.Uint8s agrees with refUint8s, the
// element-at-a-time reader it replaced — values, bytes consumed, error
// and the sticky failure — for every maximum and run length, at every
// cut of the payload.
func FuzzRuns(f *testing.F) {
	f.Add([]byte{}, uint8(64), uint8(3))
	f.Add(bytes.Repeat([]byte{0x35}, 21), uint8(53), uint8(21))
	// High bytes, a padded 5, a value of three bytes, a run of eight
	// small bytes after a high one.
	f.Add([]byte{0xc8, 0x01, 0x85, 0x00, 0x80, 0x80, 0x01, 0xff, 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 0x7f}, uint8(200), uint8(13))
	f.Add(bytes.Repeat([]byte{0xff, 0x01}, 9), uint8(255), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, max, n uint8) {
		checkRunWriters(t, data, int(n)%4)
		for cut := 0; cut <= min(len(data), 48); cut++ {
			checkUint8s(t, data[:cut], int(n), max)
		}
		checkUint8s(t, data, int(n), max)
	})
}

// checkRunWriters appends data's bytes, and words made from them, with
// each run writer and with a loop of Uint64 calls, behind a prefix of
// pre bytes, and requires the same bytes — once into a buffer grown to
// fit and once into one that must grow.
func checkRunWriters(t *testing.T, data []byte, pre int) {
	t.Helper()
	words := make([]uint64, (len(data)+7)/8)
	for i := range words {
		var b [8]byte
		copy(b[:], data[8*i:])
		x := binary.LittleEndian.Uint64(b[:])
		words[i] = x >> (x >> 58) // every uvarint length
	}
	signed := make([]int64, len(words))
	for i, v := range words {
		signed[i] = int64(v)
	}
	for _, grown := range []bool{false, true} {
		var run, loop Buffer
		for i := 0; i < pre; i++ {
			run.Uint64(uint64(0x90 + i))
			loop.Uint64(uint64(0x90 + i))
		}
		if grown {
			run.Grow(2*len(data) + 10*len(words) + 10*len(signed))
		}
		run.Uint8s(data)
		Uvarints(&run, words)
		Uvarints(&run, signed)
		for _, c := range data {
			loop.Uint64(uint64(c))
		}
		for _, v := range words {
			loop.Uint64(v)
		}
		for _, v := range signed {
			loop.Uint64(uint64(v))
		}
		if !bytes.Equal(run.Bytes(), loop.Bytes()) {
			t.Fatalf("run writers (grown %v) wrote %x, the Uint64 loop %x", grown, run.Bytes(), loop.Bytes())
		}
	}
}

var errBroken = errors.New("an earlier read failed")

// checkUint8s reads a run of n small uvarints from payload with
// Reader.Uint8s and with refUint8s, from a fresh reader and from one an
// earlier read broke, then reads once more, and requires the two to
// agree after each read.
func checkUint8s(t *testing.T, payload []byte, n int, max uint8) {
	t.Helper()
	for _, broken := range []bool{false, true} {
		run, ref := NewReader(payload), NewReader(payload)
		if broken {
			run.fail(errBroken)
			ref.fail(errBroken)
		}
		got, want := bytes.Repeat([]byte{0xee}, n), bytes.Repeat([]byte{0xee}, n)
		for pass := 0; pass < 2; pass++ {
			run.Uint8s(got, max)
			refUint8s(ref, want, max)
			if !bytes.Equal(got, want) || run.Err() != ref.Err() || run.Remaining() != ref.Remaining() {
				t.Fatalf("Uint8s(n %d, max %d) over %x, pass %d, broken %v: got %x, err %v, %d remaining; want %x, err %v, %d remaining",
					n, max, payload, pass, broken, got, run.Err(), run.Remaining(), want, ref.Err(), ref.Remaining())
			}
		}
	}
}

// refUint8s is Reader.Uint8s one element at a time: a run whose max is
// below 128 is borrowed whole and range-checked byte by byte (dst
// untouched on failure); otherwise each value is read and checked in
// turn, dst written up to the one that fails.
func refUint8s(r *Reader, dst []uint8, max uint8) {
	if max < 0x80 {
		b := r.Borrow(len(dst))
		if b == nil {
			return
		}
		for _, c := range b {
			if c > max {
				r.fail(errSmallUvarint)
				return
			}
		}
		copy(dst, b)
		return
	}
	b := r.b[r.off:]
	i := 0
	for j := range dst {
		if i >= len(b) {
			r.fail(ErrTruncated)
			return
		}
		c := b[i]
		i++
		if c >= 0x80 {
			if i >= len(b) {
				r.fail(ErrTruncated)
				return
			}
			if b[i] != 1 || c > max {
				r.fail(errSmallUvarint)
				return
			}
			i++
		}
		dst[j] = c
	}
	r.off += i
}
