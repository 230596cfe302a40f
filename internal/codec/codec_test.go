package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// and the overflow verdict — except that it refuses a padded encoding
// (a last byte of 0), over random bytes biased towards long
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
		if wantN <= 0 || wantN > 1 && buf[wantN-1] == 0 {
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
		n       int
		max     uint8
	}{
		"above max, one byte":    {[]byte{3, 65, 3}, 3, 64},
		"above max, two bytes":   {[]byte{3, 0xc8, 0x01, 3}, 3, 199},
		"not a byte: 256 + 77":   {[]byte{0xcd, 0x02, 3, 3}, 3, 255},
		"not a byte: three long": {[]byte{0x80, 0x80, 0x01}, 3, 255},
		"padded: 5 in two bytes": {[]byte{0x85, 0x00, 3}, 3, 64},
		"padded, wide max":       {[]byte{0x85, 0x00, 3}, 3, 255},
		"short":                  {[]byte{3, 3}, 3, 64},
		"short, wide max":        {[]byte{3, 0xc8}, 3, 255},
		// Inside a word of eight: the checks that step eight bytes.
		"above max, in a word":          {[]byte{1, 2, 65, 4, 5, 6, 7, 8, 9}, 9, 64},
		"high byte, in a word":          {[]byte{1, 2, 3, 4, 5, 6, 0x85, 0x01, 9}, 8, 64},
		"above max, wide max, in word":  {[]byte{1, 2, 3, 4, 5, 0xc8, 0x01, 8, 9}, 8, 199},
		"padded, wide max, in a word":   {[]byte{1, 2, 3, 0x85, 0x00, 6, 7, 8, 9}, 8, 255},
		"not a byte, wide max, in word": {[]byte{1, 2, 3, 4, 0xcd, 0x02, 7, 8, 9}, 8, 255},
	} {
		r := NewReader(tc.payload)
		r.Uint8s(make([]uint8, tc.n), tc.max)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReaderRefusesPaddedUvarints: a uvarint has one encoding, the
// shortest, which is the only one Buffer writes. A padded one — the
// same value with a last byte of 0 — is refused by every read path:
// the scalar read, each run at every position the run decodes it
// differently (the inline two-byte step, the byte loop, the word), and
// the frame's payload length — as errUvarint, not ErrTruncated: every
// byte is there.
func TestReaderRefusesPaddedUvarints(t *testing.T) {
	var vals []uint64
	for l := 0; l < 64; l += 3 {
		vals = append(vals, uint64(1)<<l, uint64(1)<<l-1)
	}
	vals = append(vals, math.MaxUint64)
	for _, v := range vals {
		var w Buffer
		w.Uint64(v)
		canon := w.Bytes() // at ten bytes, padding it overflows 64 bits
		padded := append(slices.Clone(canon), 0)
		padded[len(canon)-1] |= 0x80
		// Behind a run of small values and before ten more bytes, so
		// the run meets it inline, by the loop and as a word.
		for _, pre := range []int{0, 1, 3} {
			body := append(bytes.Repeat([]byte{5}, pre), padded...)
			body = append(body, bytes.Repeat([]byte{0x7f}, 10)...)
			r := NewReader(body[pre:])
			if r.Uint64(); r.Err() != errUvarint {
				t.Errorf("Uint64 of %x: err %v", padded, r.Err())
			}
			r = NewReader(body)
			if _, ok := r.Uint64s(make([]uint64, pre+1)); ok || r.Err() != errUvarint {
				t.Errorf("Uint64s of %x after %d values: err %v", padded, pre, r.Err())
			}
			r = NewReader(body)
			if r.Int64s(make([]int64, pre+2)); r.Err() != errUvarint {
				t.Errorf("Int64s of %x after %d values: err %v", padded, pre, r.Err())
			}
		}
		if _, err := DecodeFrame(KindMisraGries, paddedLength(EncodeFrame(KindMisraGries, make([]byte, v&0x3ff)))); err != errUvarint {
			t.Errorf("DecodeFrame of a padded payload length: err %v", err)
		}
	}
}

// paddedLength re-writes frame's payload length one byte longer, with
// a matching checksum.
func paddedLength(frame []byte) []byte {
	plen, n := binary.Uvarint(frame[6:])
	out := binary.AppendUvarint(slices.Clone(frame[:6]), plen)
	out[len(out)-1] |= 0x80
	out = append(out, 0)
	out = append(out, frame[6+n:len(frame)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestReaderBoolIsZeroOrOne: a flag has one encoding. Bool reads 0 and
// 1 and refuses every other byte, which Buffer.Bool never writes.
func TestReaderBoolIsZeroOrOne(t *testing.T) {
	for b := 0; b < 256; b++ {
		r := NewReader([]byte{byte(b)})
		got := r.Bool()
		if ok := r.Finish() == nil; ok != (b <= 1) || got != (b == 1) {
			t.Errorf("Bool(%#02x) = %v, err %v", b, got, r.Err())
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

// TestRunWriters: the run writers append the bytes of the Uint64 loop
// they replace for values at both ends of every uvarint length, and
// grow the buffer by what the run takes in one step: none when it has
// the room, one otherwise.
func TestRunWriters(t *testing.T) {
	var words []uint64
	for l := 0; l < 64; l++ {
		words = append(words, uint64(1)<<l, uint64(1)<<l-1, uint64(1)<<l+1)
	}
	words = append(words, math.MaxUint64, math.MaxUint64-1, 1<<63|1<<56)
	signed := []int64{0, -1, 1, -64, 64, -1 << 63, math.MaxInt64, -1 << 55}
	small := make([]uint8, 256+7)
	for i := range small {
		small[i] = uint8(i * 37)
	}
	var want Buffer
	for _, v := range words {
		want.Uint64(v)
	}
	for _, v := range signed {
		want.Uint64(uint64(v))
	}
	for _, c := range small {
		want.Uint64(uint64(c))
	}
	write := func(w *Buffer) {
		Uvarints(w, words)
		Uvarints(w, signed)
		w.Uint8s(small)
	}
	var got Buffer
	write(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("run writers wrote\n%x\nthe Uint64 loop\n%x", got.Bytes(), want.Bytes())
	}
	regs := bytes.Repeat([]byte{53, 0, 7, 12}, 1024) // an HLL register file: one copy
	var reg, regWant Buffer
	reg.Uint8s(regs)
	for _, c := range regs {
		regWant.Uint64(uint64(c))
	}
	if !bytes.Equal(reg.Bytes(), regWant.Bytes()) {
		t.Fatal("Uint8s of bytes below 128 differs from the Uint64 loop")
	}

	var fits Buffer
	fits.Grow(want.Len())
	if n := testing.AllocsPerRun(10, func() { fits.Reset(); write(&fits) }); n != 0 {
		t.Fatalf("run writers into a buffer with room allocate %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { var w Buffer; Uvarints(&w, words) }); n != 1 {
		t.Fatalf("Uvarints into an empty buffer allocates %v times, want 1", n)
	}
}

// BenchmarkRunWriters times each run writer against the Uint64 loop it
// replaced, per element, on the runs the families write: countmin rows
// (counts below 300, one or two bytes at random, and below 100, one
// byte each), a countsketch row (small and negative cells alternating
// at random), a kmv hash list (the smallest of 2^64, eight or nine
// bytes each) and an HLL register file.
func BenchmarkRunWriters(b *testing.B) {
	rng := uint64(1)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	counts, small, signed := make([]uint64, 2048), make([]uint64, 2048), make([]int64, 2048)
	hashes, regs := make([]uint64, 256), make([]uint8, 4096)
	for i := range counts {
		counts[i] = next() % 300
		small[i] = next() % 100
		signed[i] = int64(next()%200) - 100
	}
	for i := range hashes {
		hashes[i] = next() >> (6 + next()%3)
	}
	for i := range regs {
		regs[i] = uint8(next() % 20)
	}
	var w Buffer
	w.Grow(10 * 4096)
	run := func(name string, n int, f func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Reset()
				f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
	run("counts/loop", len(counts), func() {
		for _, v := range counts {
			w.Uint64(v)
		}
	})
	run("counts/run", len(counts), func() { Uvarints(&w, counts) })
	run("small/loop", len(small), func() {
		for _, v := range small {
			w.Uint64(v)
		}
	})
	run("small/run", len(small), func() { Uvarints(&w, small) })
	run("signed/loop", len(signed), func() {
		for _, v := range signed {
			w.Uint64(uint64(v))
		}
	})
	run("signed/run", len(signed), func() { Uvarints(&w, signed) })
	run("hashes/loop", len(hashes), func() {
		for _, v := range hashes {
			w.Uint64(v)
		}
	})
	run("hashes/run", len(hashes), func() { Uvarints(&w, hashes) })
	run("registers/loop", len(regs), func() {
		for _, v := range regs {
			w.Uint64(uint64(v))
		}
	})
	run("registers/run", len(regs), func() { w.Uint8s(regs) })
}
