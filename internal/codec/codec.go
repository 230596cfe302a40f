// Package codec provides the shared binary wire format used by every
// summary in this repository to implement encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler.
//
// The format is a self-describing frame:
//
//	magic   [4]byte  "MSUM"
//	version uint8    format version (currently 1)
//	kind    uint8    summary kind tag (see Kind constants)
//	length  uvarint  payload length in bytes
//	payload []byte   kind-specific body, little-endian/uvarint encoded
//	crc     uint32   IEEE CRC-32 of everything before it, little-endian
//
// The frame makes the distributed example safe to run over a raw TCP
// stream: a truncated, reordered or corrupted summary is detected at
// decode time instead of silently producing wrong counts.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Kind tags identify the summary type inside a frame so that a decoder
// can reject frames of the wrong type with a useful error.
type Kind uint8

// Known summary kinds. New kinds must be appended, never renumbered:
// the tag is part of the wire format. KindHLL, KindKMV and KindTopK
// were split out of the tags they historically shadowed (bottomk and
// countmin) when the family registry made one-tag-per-family a checked
// invariant.
const (
	KindInvalid Kind = iota
	KindMisraGries
	KindSpaceSaving
	KindGK
	KindRandQuant
	KindCountMin
	KindCountSketch
	KindBottomK
	KindRangeCount
	KindKernel
	KindQDigest
	KindHLL
	KindKMV
	KindTopK
)

// KindCount is the number of assigned kind tags, KindInvalid included.
// internal/registry uses it to assert catalog completeness.
const KindCount = int(KindTopK) + 1

// kindNames holds the canonical wire names declared by registry
// registrations (RegisterKindName). The codec package itself assigns
// no names: the registry is the single source of truth, and this table
// is merely its projection for String. Writes happen only during
// package init (family registrations), reads only afterwards, so no
// lock is needed.
var kindNames [KindCount]string

// RegisterKindName binds a kind tag to its canonical wire name. It is
// called by internal/registry once per family at init time, after the
// registry has checked that the tag is in range and that neither the
// tag nor the name is taken.
func RegisterKindName(k Kind, name string) { kindNames[k] = name }

func (k Kind) String() string {
	if int(k) < KindCount && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

const (
	// Version is the current frame format version.
	Version = 1

	magic = "MSUM"
)

// Frame-level decoding errors.
var (
	ErrBadMagic    = errors.New("codec: bad magic (not a summary frame)")
	ErrBadVersion  = errors.New("codec: unsupported frame version")
	ErrBadChecksum = errors.New("codec: checksum mismatch")
	ErrWrongKind   = errors.New("codec: frame holds a different summary kind")
	ErrTruncated   = errors.New("codec: truncated frame")
	ErrTrailing    = errors.New("codec: trailing bytes after frame")
)

// Buffer accumulates a payload using uvarint and fixed-width primitives.
// The zero value is ready to use.
type Buffer struct {
	b []byte
}

// maxPooledBuffer is the size-class cap for pooled encode scratch: a
// buffer that grew beyond it (one enormous summary) is dropped instead
// of pinned in the pool, so steady-state pooling cannot hold a
// high-water-mark of memory hostage.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty pooled Buffer. Pair with PutBuffer after
// the payload has been copied out (EncodeFrame copies), so per-encode
// payload scratch is reused instead of reallocated.
func GetBuffer() *Buffer {
	return bufferPool.Get().(*Buffer)
}

// PutBuffer resets w and returns it to the pool. Buffers above the
// size-class cap are dropped. The caller must not touch w (or any
// slice obtained from w.Bytes()) afterwards.
func PutBuffer(w *Buffer) {
	if w == nil || cap(w.b) > maxPooledBuffer {
		return
	}
	w.b = w.b[:0]
	bufferPool.Put(w)
}

// Bytes returns the accumulated payload.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of accumulated payload bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset truncates the buffer for reuse, keeping its capacity.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Grow ensures capacity for at least n more bytes — the pre-sized
// encode hint: a marshaller that knows its payload size writes with at
// most one (re)allocation instead of log-many append doublings.
func (w *Buffer) Grow(n int) {
	if n <= cap(w.b)-len(w.b) {
		return
	}
	nb := make([]byte, len(w.b), len(w.b)+n)
	copy(nb, w.b)
	w.b = nb
}

// Uint64 appends v as a uvarint.
func (w *Buffer) Uint64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Int appends v (which must be non-negative) as a uvarint.
func (w *Buffer) Int(v int) {
	if v < 0 {
		panic("codec: negative int")
	}
	w.Uint64(uint64(v))
}

// Bool appends v as a single 0/1 byte.
func (w *Buffer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Float64 appends v as its IEEE-754 bits, little-endian. NaNs are
// preserved bit-exactly.
func (w *Buffer) Float64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

// lsb and msb have the lowest and the highest bit of every byte set:
// the masks of the runs that step a word of eight bytes at a time.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// Uint8s appends src as a run of small uvarints — the bytes a loop of
// Uint64 calls over it appends: a byte below 128 as itself, one from
// 128 up as itself and a 1. The buffer grows once, by exactly what the
// run takes, and eight bytes below 128 are copied as one word: a run
// with no byte from 128 up is one copy.
func (w *Buffer) Uint8s(src []uint8) {
	high := 0
	i := 0
	for ; i+8 <= len(src); i += 8 {
		high += bits.OnesCount64(binary.LittleEndian.Uint64(src[i:]) & msb)
	}
	for _, c := range src[i:] {
		high += int(c >> 7)
	}
	w.Grow(len(src) + high)
	if high == 0 {
		w.b = append(w.b, src...)
		return
	}
	at := len(w.b)
	b := w.b[at : at+len(src)+high]
	j := 0
	for i := 0; i < len(src); {
		if i+8 <= len(src) {
			if x := binary.LittleEndian.Uint64(src[i:]); x&msb == 0 {
				binary.LittleEndian.PutUint64(b[j:], x)
				i, j = i+8, j+8
				continue
			}
		}
		c := src[i]
		i++
		b[j] = c
		j++
		if c >= 0x80 {
			b[j] = 1
			j++
		}
	}
	w.b = w.b[:at+j]
}

// Uvarints appends src as a run of uvarints — the bytes a loop of
// Uint64 calls over it appends, a signed counter as its raw
// two's-complement bits — and is the writer of what Reader.Uint64s and
// Reader.Int64s read (generic over the element type, so a slice of a
// named word type such as core.Item needs no copy). The buffer grows
// once, by exactly what the run takes. One- and two-byte values are
// written inline; a longer one as a word and two bytes, without a
// branch on its length (spread7), so a run that mixes lengths — a
// signed sketch's small and negative cells — pays one mispredicted
// branch per element at most. The ninth and tenth bytes are right for
// a value of more than 56 bits; for a shorter one they, and the word's
// bytes past its length, are overwritten by the next value.
func Uvarints[T ~uint64 | ~int64](w *Buffer, src []T) {
	need := 0
	for _, v := range src {
		need += uvarintLen(uint64(v))
	}
	w.Grow(need)
	at := len(w.b)
	b := w.b[at : at+need]
	i := 0
	for _, x := range src {
		v := uint64(x)
		switch {
		case v < 0x80:
			b[i] = byte(v)
			i++
		case v < 0x4000:
			b[i], b[i+1] = byte(v)|0x80, byte(v>>7)
			i += 2
		case i+binary.MaxVarintLen64 <= len(b):
			n := uvarintLen(v)
			cont := uint64(msb) & (1<<(8*uint(n-1)) - 1) // every byte when n > 8
			binary.LittleEndian.PutUint64(b[i:], spread7(v)|cont)
			b[i+8] = byte(v >> 56) // its top bit is bit 63: the continuation
			b[i+9] = byte(v >> 63)
			i += n
		default: // the last bytes of the run: no room for a word store
			i += binary.PutUvarint(b[i:], v)
		}
	}
	w.b = w.b[:at+i]
}

// uvarintLen is the length of v as a uvarint: one byte per seven bits.
func uvarintLen(v uint64) int { return (bits.Len64(v|1)*9 + 64) >> 6 }

// spread7 spreads the low 56 bits of v into eight 7-bit groups, one a
// byte, in three shift-and-mask steps: the inverse of uvarintWord's
// squeeze.
func spread7(v uint64) uint64 {
	x := v & (1<<56 - 1)
	x = x&0x000000000fffffff | x&0x00fffffff0000000<<4
	x = x&0x00003fff00003fff | x&0x0fffc0000fffc000<<2
	return x&0x007f007f007f007f | x&0x3f803f803f803f80<<1
}

// Reader consumes a payload written by Buffer.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload for reading.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// fail records err, unless an earlier error stands, and drops what is
// left of the payload: an errored reader has nothing remaining, so the
// reads need no error check of their own — the bounds check they make
// anyway notices.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

// Uint64 reads a uvarint. On error it returns 0 and records the error.
// A one-byte value — most counters, every length — is decoded before
// anything else is looked at, and a two-byte one (a second byte of
// 1–127: 0 would be padding) inline after it, as the runs do.
func (r *Reader) Uint64() uint64 {
	b := r.b[r.off:] // empty once an error stands
	if len(b) > 0 && b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	if len(b) > 1 && b[1]-1 < 0x7f {
		r.off += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	}
	var v uint64
	var n int
	if longUvarint(b) {
		v, n = uvarintWord(b)
	} else if v, n = binary.Uvarint(b); padded(v, n) {
		n = -n
	}
	if n <= 0 {
		r.fail(uvarintErr(n))
		return 0
	}
	r.off += n
	return v
}

// errUvarint is a uvarint that is all there but is not one Buffer
// writes: padded, or over 64 bits.
var errUvarint = errors.New("codec: uvarint padded or over 64 bits")

// uvarintErr is the fault of a uvarint read that returned n <= 0, as
// binary.Uvarint reports it: 0 when the bytes ran out, negative when
// they are all there but malformed.
func uvarintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return errUvarint
}

// padded reports whether v, read as a uvarint of n bytes, is padded: its
// last byte is 0, so v has no bits beyond the first n−1 bytes' 7(n−1)
// and a shorter encoding exists, which is the only one Buffer writes.
// Every read path refuses one, so a value has one encoding on the wire
// and a state one frame. It tests the value, not the byte, so the check
// costs a shift on values already in registers.
func padded(v uint64, n int) bool { return n > 1 && v>>(7*uint(n-1)) == 0 }

// longUvarint reports whether b opens with a uvarint of seven bytes or
// more — a hash, a random tag, a negative counter sent as its raw bits
// — and holds the ten bytes uvarintWord reads. Those are decoded a
// word at a time; shorter ones by binary.Uvarint's loop, which is
// faster up to six bytes.
func longUvarint(b []byte) bool {
	const six = 0x0000808080808080 // continuation bits of the first six bytes
	return len(b) >= binary.MaxVarintLen64 && binary.LittleEndian.Uint64(b)&six == six
}

// Int reads a uvarint as an int, failing on overflow.
func (r *Reader) Int() int {
	v := r.Uint64()
	if r.err == nil && v > math.MaxInt32 {
		// Structural sizes in this library are far below 2^31; a
		// larger value indicates corruption even on 64-bit hosts.
		r.fail(fmt.Errorf("codec: implausible size %d", v))
		return 0
	}
	return int(v)
}

// ArrayLen reads a uvarint element count and validates it against the
// remaining payload: each element needs at least minBytesPerItem bytes,
// so a count that cannot possibly fit is corruption — rejecting it here
// keeps decoders from allocating attacker-controlled amounts of memory
// before they notice the truncation.
func (r *Reader) ArrayLen(minBytesPerItem int) int {
	if minBytesPerItem < 1 {
		minBytesPerItem = 1
	}
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n*minBytesPerItem > r.Remaining() {
		r.fail(fmt.Errorf("codec: array length %d exceeds remaining payload %d", n, r.Remaining()))
		return 0
	}
	return n
}

// Bool reads a single 0/1 byte as a bool. Any other byte is refused:
// Buffer.Bool writes no other, so a flag has one encoding.
func (r *Reader) Bool() bool {
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return false
	}
	v := r.b[r.off]
	if v > 1 {
		r.fail(errBool)
		return false
	}
	r.off++
	return v == 1
}

var errBool = errors.New("codec: bool byte other than 0 or 1")

// Float64 reads 8 little-endian bytes as a float64.
func (r *Reader) Float64() float64 {
	if len(r.b)-r.off < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Resize returns s with length n, reusing its storage when that has
// room: the sizing step of a decoder that fills retained storage with
// a run read. The elements are whatever the storage held (zero when
// freshly allocated) — the run overwrites them. Call it only once n has
// been validated against the payload (ArrayLen, a Remaining check), so
// a hostile count cannot size an allocation.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// uvarintRun decodes len(dst) uvarints from the front of b into dst
// and returns the bytes they took, or -1 when b is short and -2 when
// it holds a malformed uvarint, with the sum of the values and whether
// that sum wrapped 64 bits: a decoder that holds a run to a mass law
// gets it from the one walk.
// The one- and two-byte encodings are decoded inline and summed apart,
// without a carry check: each is below 2^14, so no run a frame can
// hold wraps their sum. A padded encoding fails the run, as it fails
// Uint64; a failed run leaves dst partly written.
func uvarintRun[T uint64 | int64](b []byte, dst []T) (int, uint64, bool) {
	i := 0
	var small, sum, carry, wrap uint64
	for j := range dst {
		if i >= len(b) {
			return -1, 0, false
		}
		if c := b[i]; c < 0x80 {
			dst[j] = T(c)
			small += uint64(c)
			i++
			continue
		}
		if i+1 < len(b) && b[i+1]-1 < 0x7f { // a second byte of 1–127: 0 is padding
			v := uint64(b[i]&0x7f) | uint64(b[i+1])<<7
			dst[j] = T(v)
			small += v
			i += 2
			continue
		}
		var v uint64
		var n int
		if longUvarint(b[i:]) {
			v, n = uvarintWord(b[i:])
		} else if v, n = binary.Uvarint(b[i:]); padded(v, n) {
			n = -n
		}
		if n < 0 {
			return -2, 0, false
		}
		if n == 0 {
			return -1, 0, false
		}
		dst[j] = T(v)
		sum, carry = bits.Add64(sum, v, 0)
		wrap |= carry
		i += n
	}
	sum, carry = bits.Add64(sum, small, 0)
	return i, sum, wrap|carry != 0
}

// uvarintWord is binary.Uvarint for len(b) >= 10, without the loop:
// the first eight bytes are loaded as one word, the first byte with
// its continuation bit clear gives the length, and the 7-bit groups
// are squeezed together in three shift-and-mask steps. A negative
// counter sent as its raw bits (ten bytes, countsketch's every other
// cell) costs the same as a two-byte one. Returns n < 0 on overflow,
// as binary.Uvarint does, and on a padded encoding.
func uvarintWord(b []byte) (v uint64, n int) {
	w := binary.LittleEndian.Uint64(b)
	n = 8
	if stop := ^w & 0x8080808080808080; stop != 0 {
		n = bits.TrailingZeros64(stop)>>3 + 1
		w &= ^uint64(0) >> (64 - 8*uint(n))
	}
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
	w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
	w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
	if n < 8 || b[7] < 0x80 {
		if padded(w, n) {
			return 0, -n
		}
		return w, n
	}
	if b[8] < 0x80 {
		if b[8] == 0 {
			return 0, -9 // padded
		}
		return w | uint64(b[8])<<56, 9
	}
	if b[9] != 1 {
		return 0, -10 // padded, or overflows 64 bits
	}
	return w | uint64(b[8]&0x7f)<<56 | 1<<63, 10
}

// ran consumes the n bytes a run read, or records its failure (n < 0):
// -1 is a short payload, -2 a malformed uvarint.
func (r *Reader) ran(n int) {
	if n == -1 {
		r.fail(ErrTruncated)
		return
	}
	if n < 0 {
		r.fail(errUvarint)
		return
	}
	r.off += n
}

// Uint64s reads a run of len(dst) uvarints into dst — what a loop of
// Uint64 calls reads, without a call, a reader update and an error
// check per element — and returns their sum, with ok false when the
// sum wraps 64 bits or the run fails. On error dst is partly written
// and the error is recorded.
func (r *Reader) Uint64s(dst []uint64) (sum uint64, ok bool) {
	n, sum, wrapped := uvarintRun(r.b[r.off:], dst)
	r.ran(n)
	return sum, n >= 0 && !wrapped
}

// Int64s is Uint64s for counters that travel as their raw
// two's-complement bits (int64(r.Uint64()) per element).
func (r *Reader) Int64s(dst []int64) {
	n, _, _ := uvarintRun(r.b[r.off:], dst)
	r.ran(n)
}

// Uint8s reads a run of len(dst) small uvarints, each at most max,
// into dst: values below 128 are one byte on the wire, 128–255 two.
// Only the canonical (shortest) encoding is accepted — Buffer.Uint64
// emits no other — so a run whose max is below 128 is exactly len(dst)
// bytes: borrowed, range-checked eight bytes per step, then copied
// (dst is untouched if the check fails). With max at 128 or above, eight
// wire bytes below 128 are copied as one word, and a byte with its top
// bit set is decoded with what follows it. A value above max, a padded
// encoding or a short payload fails the run; with max at 128 or above
// dst is then written up to the element that failed. The error is
// recorded.
func (r *Reader) Uint8s(dst []uint8, max uint8) {
	if max < 0x80 {
		b := r.Borrow(len(dst))
		if b == nil {
			return
		}
		// A byte c is out of range when its top bit is set or, below
		// 128, when c + (127 − max) reaches 128; neither sum carries
		// out of its byte.
		over := uint64(0x7f-max) * lsb
		var bad uint64
		i := 0
		for ; i+8 <= len(b); i += 8 {
			x := binary.LittleEndian.Uint64(b[i:])
			bad |= (x&^msb + over) | x
		}
		for _, c := range b[i:] {
			bad |= uint64((c&0x7f + 0x7f - max) | c)
		}
		if bad&msb != 0 {
			r.fail(errSmallUvarint)
			return
		}
		copy(dst, b)
		return
	}
	b := r.b[r.off:] // empty once an error stands
	i, j := 0, 0
	for j < len(dst) {
		if j+8 <= len(dst) && i+8 <= len(b) {
			if x := binary.LittleEndian.Uint64(b[i:]); x&msb == 0 {
				binary.LittleEndian.PutUint64(dst[j:], x)
				i, j = i+8, j+8
				continue
			}
		}
		if i >= len(b) {
			r.fail(ErrTruncated)
			return
		}
		c := b[i]
		i++
		if c >= 0x80 {
			// Two bytes carry 128–255 as (the value itself, 1): its low
			// seven bits under the continuation bit, then bit seven.
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
		j++
	}
	r.off += i
}

var errSmallUvarint = errors.New("codec: small-uvarint run holds a value out of range or not in shortest form")

// Float64s reads a run of len(dst) little-endian float64s into dst
// over one Borrow. On error dst is untouched.
func (r *Reader) Float64s(dst []float64) {
	b := r.Borrow(8 * len(dst))
	if b == nil {
		return
	}
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
	}
}

// Borrow returns the next n payload bytes without copying. The slice
// aliases the frame being decoded: it is valid only while the caller
// owns that frame buffer, so a decoder that retains bytes beyond its
// UnmarshalBinary call must copy them out first. This is the zero-copy
// read primitive for fixed-width runs (raw register arrays, packed
// floats); pooled frame buffers stay poolable because nothing durable
// aliases them.
func (r *Reader) Borrow(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Finish verifies that the payload was consumed exactly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return ErrTrailing
	}
	return nil
}

// EncodeFrame wraps a payload in the versioned, checksummed frame.
func EncodeFrame(kind Kind, payload []byte) []byte {
	return AppendFrame(nil, kind, payload)
}

// AppendFrame appends the frame EncodeFrame returns to dst, growing it
// at most once; a nil dst becomes one allocation of the frame's size.
func AppendFrame(dst []byte, kind Kind, payload []byte) []byte {
	size := len(magic) + 2 + binary.MaxVarintLen64 + len(payload) + 4
	if dst == nil {
		dst = make([]byte, 0, size)
	} else {
		dst = slices.Grow(dst, size)
	}
	start := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, Version, byte(kind))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// PeekKind returns the kind tag of a frame without validating its
// payload or checksum: enough of the header is checked (magic and
// version) to know the byte is really a kind tag. Dispatch layers use
// it to route a frame to the registered decoder, which then performs
// the full validation.
func PeekKind(data []byte) (Kind, error) {
	if len(data) < len(magic)+2 {
		return KindInvalid, ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return KindInvalid, ErrBadMagic
	}
	if data[len(magic)] != Version {
		return KindInvalid, fmt.Errorf("%w: %d", ErrBadVersion, data[len(magic)])
	}
	return Kind(data[len(magic)+1]), nil
}

// DecodeFrame validates a frame and returns its payload. The whole
// input must be exactly one frame.
func DecodeFrame(kind Kind, data []byte) ([]byte, error) {
	got, err := PeekKind(data)
	if err != nil {
		return nil, err
	}
	if got != kind {
		return nil, fmt.Errorf("%w: have %v, want %v", ErrWrongKind, got, kind)
	}
	off := len(magic) + 2
	plen, n := binary.Uvarint(data[off:])
	if padded(plen, n) {
		n = -n
	}
	if n <= 0 {
		return nil, uvarintErr(n)
	}
	off += n
	if plen > uint64(len(data)-off) {
		return nil, ErrTruncated
	}
	end := off + int(plen)
	if len(data) < end+4 {
		return nil, ErrTruncated
	}
	wantCRC := binary.LittleEndian.Uint32(data[end:])
	if crc32.ChecksumIEEE(data[:end]) != wantCRC {
		return nil, ErrBadChecksum
	}
	if len(data) != end+4 {
		return nil, ErrTrailing
	}
	return data[off:end], nil
}
