package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBufferReaderRoundTrip(t *testing.T) {
	var w Buffer
	w.Uint64(0)
	w.Uint64(1)
	w.Uint64(math.MaxUint64)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.Float64(3.5)
	w.Float64(math.Inf(-1))

	r := NewReader(w.Bytes())
	if got := r.Uint64(); got != 0 {
		t.Errorf("Uint64 #1 = %d", got)
	}
	if got := r.Uint64(); got != 1 {
		t.Errorf("Uint64 #2 = %d", got)
	}
	if got := r.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 #3 = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Bool(); got != true {
		t.Errorf("Bool #1 = %v", got)
	}
	if got := r.Bool(); got != false {
		t.Errorf("Bool #2 = %v", got)
	}
	if got := r.Float64(); got != 3.5 {
		t.Errorf("Float64 #1 = %v", got)
	}
	if got := r.Float64(); !math.IsInf(got, -1) {
		t.Errorf("Float64 #2 = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	var w Buffer
	w.Uint64(300)
	r := NewReader(w.Bytes()[:1]) // cut the varint in half
	r.Uint64()
	if r.Err() == nil {
		t.Fatal("expected error on truncated varint")
	}
	r2 := NewReader(nil)
	r2.Float64()
	if r2.Err() == nil {
		t.Fatal("expected error on empty float read")
	}
	r3 := NewReader(nil)
	r3.Bool()
	if r3.Err() == nil {
		t.Fatal("expected error on empty bool read")
	}
}

func TestReaderFinishTrailing(t *testing.T) {
	var w Buffer
	w.Uint64(1)
	w.Uint64(2)
	r := NewReader(w.Bytes())
	r.Uint64()
	if err := r.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Finish = %v, want ErrTrailing", err)
	}
}

func TestNegativeIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int(-1) did not panic")
		}
	}()
	var w Buffer
	w.Int(-1)
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello summaries")
	frame := EncodeFrame(KindMisraGries, payload)
	got, err := DecodeFrame(KindMisraGries, frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	frame := EncodeFrame(KindGK, nil)
	got, err := DecodeFrame(KindGK, frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("payload = %v, want empty", got)
	}
}

func TestFrameWrongKind(t *testing.T) {
	frame := EncodeFrame(KindMisraGries, []byte("x"))
	if _, err := DecodeFrame(KindSpaceSaving, frame); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("err = %v, want ErrWrongKind", err)
	}
}

func TestFrameBadMagic(t *testing.T) {
	frame := EncodeFrame(KindMisraGries, []byte("x"))
	frame[0] = 'X'
	if _, err := DecodeFrame(KindMisraGries, frame); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameBadVersion(t *testing.T) {
	frame := EncodeFrame(KindMisraGries, []byte("x"))
	frame[4] = 99
	if _, err := DecodeFrame(KindMisraGries, frame); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestFrameCorruptPayload(t *testing.T) {
	frame := EncodeFrame(KindMisraGries, []byte("abcdef"))
	frame[len(frame)-6] ^= 0xff // flip a payload byte
	if _, err := DecodeFrame(KindMisraGries, frame); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	frame := EncodeFrame(KindMisraGries, []byte("abcdef"))
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeFrame(KindMisraGries, frame[:cut]); err == nil {
			t.Fatalf("no error decoding frame truncated to %d bytes", cut)
		}
	}
}

func TestFrameTrailing(t *testing.T) {
	frame := EncodeFrame(KindMisraGries, []byte("x"))
	frame = append(frame, 0)
	if _, err := DecodeFrame(KindMisraGries, frame); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestKindString(t *testing.T) {
	// Wire names come from registry registrations; the golden-corpus
	// test (package codec_test) links the full catalog into this test
	// binary, so registered tags resolve to their canonical names and
	// only unknown tags fall back to the numeric form.
	if KindMisraGries.String() != "mg" {
		t.Errorf("registered KindMisraGries.String() = %q", KindMisraGries.String())
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind String() = %q", Kind(200).String())
	}
}

func TestPeekKind(t *testing.T) {
	frame := EncodeFrame(KindQDigest, []byte("payload"))
	k, err := PeekKind(frame)
	if err != nil || k != KindQDigest {
		t.Fatalf("PeekKind = %v, %v, want KindQDigest", k, err)
	}
	if _, err := PeekKind(frame[:3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame err = %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := PeekKind(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v, want ErrBadMagic", err)
	}
	badv := append([]byte(nil), frame...)
	badv[4] = 99
	if _, err := PeekKind(badv); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version err = %v, want ErrBadVersion", err)
	}
}

// Property: any payload round-trips through frame encode/decode.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, kindByte uint8) bool {
		kind := Kind(kindByte%8 + 1)
		frame := EncodeFrame(kind, payload)
		got, err := DecodeFrame(kind, frame)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	w := GetBuffer()
	if w.Len() != 0 {
		t.Fatalf("pooled buffer not empty: %d bytes", w.Len())
	}
	w.Uint64(7)
	w.Float64(1.5)
	frame := EncodeFrame(KindMisraGries, w.Bytes())
	PutBuffer(w)
	// The frame must be a copy: mutating a reacquired buffer cannot
	// corrupt a frame encoded from a previous tenant.
	w2 := GetBuffer()
	defer PutBuffer(w2)
	w2.Grow(64)
	for i := 0; i < 8; i++ {
		w2.Uint64(math.MaxUint64)
	}
	payload, err := DecodeFrame(KindMisraGries, frame)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(payload)
	if got := r.Uint64(); got != 7 {
		t.Errorf("Uint64 = %d, want 7", got)
	}
	if got := r.Float64(); got != 1.5 {
		t.Errorf("Float64 = %g, want 1.5", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolSizeClassCap(t *testing.T) {
	w := new(Buffer)
	w.Grow(maxPooledBuffer + 1)
	PutBuffer(w) // must be dropped, not pooled
	if w2 := GetBuffer(); cap(w2.b) > maxPooledBuffer {
		t.Errorf("oversized buffer (cap %d) returned to pool", cap(w2.b))
	}
}

func TestBufferGrow(t *testing.T) {
	var w Buffer
	w.Uint64(1)
	before := w.Bytes()
	w.Grow(1 << 10)
	if got := w.Bytes(); len(got) != len(before) || got[0] != before[0] {
		t.Fatalf("Grow changed contents: %v vs %v", got, before)
	}
	c := cap(w.b)
	for i := 0; i < 100; i++ {
		w.Uint64(uint64(i))
	}
	if cap(w.b) != c {
		t.Errorf("Grow(1024) did not pre-size: cap went %d -> %d", c, cap(w.b))
	}
}

func TestReaderBorrow(t *testing.T) {
	var w Buffer
	w.Uint64(9)
	w.Float64(2.25)
	r := NewReader(w.Bytes())
	if got := r.Uint64(); got != 9 {
		t.Fatalf("Uint64 = %d", got)
	}
	b := r.Borrow(8)
	if len(b) != 8 {
		t.Fatalf("Borrow(8) = %d bytes", len(b))
	}
	if got := math.Float64frombits(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56); got != 2.25 {
		t.Errorf("borrowed float bits = %g, want 2.25", got)
	}
	// Borrow must alias, not copy.
	if &b[0] != &w.b[len(w.b)-8] {
		t.Error("Borrow copied instead of aliasing")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	// Borrowing past the end is a recorded decode error, not a panic.
	r2 := NewReader([]byte{1, 2})
	if got := r2.Borrow(3); got != nil {
		t.Errorf("Borrow(3) of 2 bytes = %v, want nil", got)
	}
	if !errors.Is(r2.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r2.Err())
	}
}

// TestUvarintWordMatchesUvarint: the word-at-a-time decoder is
// binary.Uvarint on every input of ten bytes or more — value, length,
// and the overflow verdict — over random bytes biased towards long
// continuation runs.
func TestUvarintWordMatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 16)
	for it := 0; it < 200000; it++ {
		rng.Read(buf)
		l := rng.Intn(12)
		for k := 0; k < l; k++ {
			buf[k] |= 0x80
		}
		if rng.Intn(2) == 0 {
			buf[l] &= 0x7f
		}
		wantV, wantN := binary.Uvarint(buf)
		gotV, gotN := uvarintWord(buf)
		if wantN <= 0 {
			if gotN > 0 {
				t.Fatalf("%x: Uvarint fails (n=%d), uvarintWord gives %d, %d", buf, wantN, gotV, gotN)
			}
			continue
		}
		if gotV != wantV || gotN != wantN {
			t.Fatalf("%x: want %d (%d bytes), got %d (%d bytes)", buf, wantV, wantN, gotV, gotN)
		}
	}
}

// TestReaderRuns: each run read returns what the loop of scalar reads
// it replaces returns, for values of every encoded length, and is cut
// short — one recorded error, nothing remaining — wherever the payload
// is.
func TestReaderRuns(t *testing.T) {
	var vals []uint64
	for l := 0; l < 64; l++ {
		vals = append(vals, uint64(1)<<l, uint64(1)<<l-1, uint64(l))
	}
	vals = append(vals, math.MaxUint64, uint64(1<<63)+5)
	var w Buffer
	for _, v := range vals {
		w.Uint64(v)
	}
	payload := w.Bytes()

	got := make([]uint64, len(vals))
	r := NewReader(payload)
	if _, ok := r.Uint64s(got); ok {
		t.Fatal("Uint64s: a run holding 2^63 twice did not report its sum wrapping")
	}
	if err := r.Finish(); err != nil || !slices.Equal(got, vals) {
		t.Fatalf("Uint64s: err %v, values equal %v", err, slices.Equal(got, vals))
	}
	// Values of every encoded length below 2^62: the sum fits.
	var small Buffer
	var want uint64
	for _, v := range vals[:3*62] {
		small.Uint64(v)
		want += v
	}
	r = NewReader(small.Bytes())
	if sum, ok := r.Uint64s(got[:3*62]); !ok || sum != want {
		t.Fatalf("Uint64s sum = %d, %v; want %d", sum, ok, want)
	}
	gotI := make([]int64, len(vals))
	r = NewReader(payload)
	r.Int64s(gotI)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if gotI[i] != int64(v) {
			t.Fatalf("Int64s[%d] = %d, want %d", i, gotI[i], int64(v))
		}
	}
	for cut := 0; cut < len(payload); cut++ {
		r := NewReader(payload[:cut])
		r.Uint64s(got)
		if !errors.Is(r.Err(), ErrTruncated) || r.Remaining() != 0 {
			t.Fatalf("Uint64s over %d of %d bytes: err %v, %d remaining", cut, len(payload), r.Err(), r.Remaining())
		}
	}

	floats := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	w.Reset()
	for _, v := range floats {
		w.Float64(v)
	}
	gotF := make([]float64, len(floats))
	r = NewReader(w.Bytes())
	r.Float64s(gotF)
	if err := r.Finish(); err != nil || !slices.Equal(gotF, floats) {
		t.Fatalf("Float64s: err %v, got %v", err, gotF)
	}
	r = NewReader(w.Bytes()[:len(w.Bytes())-1])
	r.Float64s(gotF)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Float64s over a short payload: err %v", r.Err())
	}
}

// TestReaderSmallRun: the small-uvarint run reads bytes written one
// uvarint each — one byte below 128, two from 128 to 255 — and rejects
// a value above its maximum, a value that is not a byte at all (which a
// byte(r.Uint64()) loop would silently cut down), and any encoding but
// the shortest.
func TestReaderSmallRun(t *testing.T) {
	all := make([]uint8, 256)
	var w Buffer
	for i := range all {
		all[i] = uint8(i)
		w.Uint64(uint64(i))
	}
	got := make([]uint8, 256)
	r := NewReader(w.Bytes())
	r.Uint8s(got, 255)
	if err := r.Finish(); err != nil || !slices.Equal(got, all) {
		t.Fatalf("Uint8s(255): err %v", err)
	}
	r = NewReader(w.Bytes()[:65])
	r.Uint8s(got[:65], 64)
	if err := r.Finish(); err != nil || !slices.Equal(got[:65], all[:65]) {
		t.Fatalf("Uint8s(64): err %v", err)
	}
	for name, tc := range map[string]struct {
		payload []byte
		max     uint8
	}{
		"above max, one byte":    {[]byte{3, 65, 3}, 64},
		"above max, two bytes":   {[]byte{3, 0xc8, 0x01, 3}, 199},
		"not a byte: 256 + 77":   {[]byte{0xcd, 0x02, 3, 3}, 255},
		"not a byte: three long": {[]byte{0x80, 0x80, 0x01}, 255},
		"padded: 5 in two bytes": {[]byte{0x85, 0x00, 3}, 64},
		"padded, wide max":       {[]byte{0x85, 0x00, 3}, 255},
		"short":                  {[]byte{3, 3}, 64},
		"short, wide max":        {[]byte{3, 0xc8}, 255},
	} {
		r := NewReader(tc.payload)
		r.Uint8s(make([]uint8, 3), tc.max)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReaderErrorIsSticky: the first error stands, later reads return
// zero values, and an errored reader has nothing remaining — which is
// what lets the scalar fast paths skip an error check of their own.
func TestReaderErrorIsSticky(t *testing.T) {
	var w Buffer
	w.Uint64(1 << 40) // implausible as a size
	w.Uint64(7)
	w.Float64(1.5)
	w.Bool(true)
	r := NewReader(w.Bytes())
	if r.Int() != 0 || r.Err() == nil {
		t.Fatal("implausible size accepted")
	}
	first := r.Err()
	if r.Uint64() != 0 || r.Float64() != 0 || r.Bool() || r.Borrow(1) != nil || r.ArrayLen(1) != 0 {
		t.Fatal("read after an error returned data")
	}
	dst := []uint64{9}
	r.Uint64s(dst)
	if dst[0] != 9 || r.Remaining() != 0 || r.Err() != first || r.Finish() != first {
		t.Fatalf("after an error: dst %v, remaining %d, err %v (first was %v)", dst, r.Remaining(), r.Err(), first)
	}
}

func TestResize(t *testing.T) {
	s := make([]int, 3, 8)
	s[0], s[1], s[2] = 1, 2, 3
	if got := Resize(s, 5); len(got) != 5 || &got[0] != &s[0] {
		t.Fatal("Resize within capacity did not reuse storage")
	}
	if got := Resize(s, 9); len(got) != 9 || got[0] != 0 {
		t.Fatal("Resize beyond capacity did not allocate zeroed storage")
	}
	if got := Resize([]int(nil), 0); len(got) != 0 {
		t.Fatal("Resize(nil, 0)")
	}
}
