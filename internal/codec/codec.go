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
	"io"
	"math"
	"math/bits"
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

// kindNames maps tags to the canonical wire names declared by
// registry registrations (RegisterKindName). The codec package itself
// assigns no names: the registry is the single source of truth, and
// this table is merely its projection for String/KindByName. Writes
// happen only during package init (family registrations), reads only
// afterwards, so no lock is needed.
var kindNames = map[Kind]string{}

// kindByName is the inverse of kindNames.
var kindByName = map[string]Kind{}

// RegisterKindName binds a kind tag to its canonical wire name. It is
// called by internal/registry once per family at init time and panics
// on a duplicate tag or name: two families may not share a wire tag
// (the historical topk/countmin and hll/kmv/bottomk aliasing), and two
// tags may not share a name.
func RegisterKindName(k Kind, name string) {
	if k == KindInvalid || name == "" {
		panic("codec: cannot register the invalid kind or an empty name")
	}
	if prev, ok := kindNames[k]; ok {
		panic(fmt.Sprintf("codec: kind %d already registered as %q", uint8(k), prev))
	}
	if prev, ok := kindByName[name]; ok {
		panic(fmt.Sprintf("codec: name %q already registered for kind %d", name, uint8(prev)))
	}
	kindNames[k] = name
	kindByName[name] = k
}

// KindByName returns the kind tag registered under the canonical wire
// name, or (KindInvalid, false) when no family claims it.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// RegisteredKinds returns the registered tags in ascending order.
func RegisteredKinds() []Kind {
	out := make([]Kind, 0, len(kindNames))
	for k := Kind(1); int(k) < KindCount; k++ {
		if _, ok := kindNames[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
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
//
//sketch:hotpath
func GetBuffer() *Buffer {
	return bufferPool.Get().(*Buffer)
}

// PutBuffer resets w and returns it to the pool. Buffers above the
// size-class cap are dropped. The caller must not touch w (or any
// slice obtained from w.Bytes()) afterwards.
//
//sketch:hotpath
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
//
//sketch:hotpath
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
// anything else is looked at.
//
//sketch:hotpath
func (r *Reader) Uint64() uint64 {
	b := r.b[r.off:] // empty once an error stands
	if len(b) > 0 && b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	var v uint64
	var n int
	if longUvarint(b) {
		v, n = uvarintWord(b)
	} else {
		v, n = binary.Uvarint(b)
	}
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

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

// Bool reads a single byte as a bool.
func (r *Reader) Bool() bool {
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return false
	}
	v := r.b[r.off]
	r.off++
	return v != 0
}

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
// and returns the bytes they took, or -1 when b is short or malformed.
// The one- and two-byte encodings are decoded inline. A failed run
// leaves dst partly written.
func uvarintRun[T uint64 | int64](b []byte, dst []T) int {
	i := 0
	for j := range dst {
		if i >= len(b) {
			return -1
		}
		if c := b[i]; c < 0x80 {
			dst[j] = T(c)
			i++
			continue
		}
		if i+1 < len(b) && b[i+1] < 0x80 {
			dst[j] = T(b[i]&0x7f) | T(b[i+1])<<7
			i += 2
			continue
		}
		var v uint64
		var n int
		if longUvarint(b[i:]) {
			v, n = uvarintWord(b[i:])
		} else {
			v, n = binary.Uvarint(b[i:])
		}
		if n <= 0 {
			return -1
		}
		dst[j] = T(v)
		i += n
	}
	return i
}

// uvarintWord is binary.Uvarint for len(b) >= 10, without the loop:
// the first eight bytes are loaded as one word, the first byte with
// its continuation bit clear gives the length, and the 7-bit groups
// are squeezed together in three shift-and-mask steps. A negative
// counter sent as its raw bits (ten bytes, countsketch's every other
// cell) costs the same as a two-byte one. Returns n <= 0 on overflow,
// as binary.Uvarint does.
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
		return w, n
	}
	if b[8] < 0x80 {
		return w | uint64(b[8])<<56, 9
	}
	if b[9] > 1 {
		return 0, -10 // overflows 64 bits
	}
	return w | uint64(b[8]&0x7f)<<56 | uint64(b[9])<<63, 10
}

// ran consumes the n bytes a run read, or records its failure (n < 0).
func (r *Reader) ran(n int) {
	if n < 0 {
		r.fail(ErrTruncated)
		return
	}
	r.off += n
}

// Uint64s reads a run of len(dst) uvarints into dst — what a loop of
// Uint64 calls reads, without a call, a reader update and an error
// check per element. On error dst is partly written and the error is
// recorded.
//
//sketch:hotpath
func (r *Reader) Uint64s(dst []uint64) { r.ran(uvarintRun(r.b[r.off:], dst)) }

// Int64s is Uint64s for counters that travel as their raw
// two's-complement bits (int64(r.Uint64()) per element).
//
//sketch:hotpath
func (r *Reader) Int64s(dst []int64) { r.ran(uvarintRun(r.b[r.off:], dst)) }

// Uint8s reads a run of len(dst) small uvarints, each at most max,
// into dst: values below 128 are one byte on the wire, 128–255 two.
// Only the canonical (shortest) encoding is accepted — Buffer.Uint64
// emits no other — so a run whose max is below 128 is exactly len(dst)
// bytes: borrowed, range-checked, then copied (dst is untouched if the
// check fails). A value above max, a padded encoding or a short payload
// fails the run; with max at 128 or above dst is then partly written.
// The error is recorded.
//
//sketch:hotpath
func (r *Reader) Uint8s(dst []uint8, max uint8) {
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
	b := r.b[r.off:] // empty once an error stands
	i := 0
	for j := range dst {
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
	}
	r.off += i
}

var errSmallUvarint = errors.New("codec: small-uvarint run holds a value out of range or not in shortest form")

// Float64s reads a run of len(dst) little-endian float64s into dst
// over one Borrow. On error dst is untouched.
//
//sketch:hotpath
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
//
//sketch:hotpath
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
	out := make([]byte, 0, len(magic)+2+binary.MaxVarintLen64+len(payload)+4)
	out = append(out, magic...)
	out = append(out, Version, byte(kind))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	crc := crc32.ChecksumIEEE(out)
	out = binary.LittleEndian.AppendUint32(out, crc)
	return out
}

// DecodeFrame validates a frame and returns its payload. The whole
// input must be exactly one frame.
func DecodeFrame(kind Kind, data []byte) ([]byte, error) {
	payload, rest, err := decodeFramePrefix(kind, data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailing
	}
	return payload, nil
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

// decodeFramePrefix decodes one frame from the front of data, returning
// the payload and any remaining bytes.
func decodeFramePrefix(kind Kind, data []byte) (payload, rest []byte, err error) {
	if len(data) < len(magic)+2 {
		return nil, nil, ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return nil, nil, ErrBadMagic
	}
	if data[len(magic)] != Version {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadVersion, data[len(magic)])
	}
	got := Kind(data[len(magic)+1])
	if got != kind {
		return nil, nil, fmt.Errorf("%w: have %v, want %v", ErrWrongKind, got, kind)
	}
	off := len(magic) + 2
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, nil, ErrTruncated
	}
	off += n
	if plen > uint64(len(data)-off) {
		return nil, nil, ErrTruncated
	}
	end := off + int(plen)
	if len(data) < end+4 {
		return nil, nil, ErrTruncated
	}
	wantCRC := binary.LittleEndian.Uint32(data[end:])
	if crc32.ChecksumIEEE(data[:end]) != wantCRC {
		return nil, nil, ErrBadChecksum
	}
	return data[off:end], data[end+4:], nil
}

// WriteFrame writes a complete frame to w, preceded by nothing: the
// frame is self-delimiting, so frames can be concatenated on a stream.
func WriteFrame(w io.Writer, kind Kind, payload []byte) error {
	_, err := w.Write(EncodeFrame(kind, payload))
	return err
}

// ReadFrame reads exactly one frame of the given kind from r.
func ReadFrame(r io.Reader, kind Kind) ([]byte, error) {
	head := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if string(head[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if head[len(magic)] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, head[len(magic)])
	}
	got := Kind(head[len(magic)+1])
	if got != kind {
		return nil, fmt.Errorf("%w: have %v, want %v", ErrWrongKind, got, kind)
	}
	// Read the uvarint length byte-by-byte (it is at most 10 bytes).
	var lenBuf []byte
	var plen uint64
	for {
		var b [1]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		lenBuf = append(lenBuf, b[0])
		var n int
		plen, n = binary.Uvarint(lenBuf)
		if n > 0 {
			break
		}
		if len(lenBuf) >= binary.MaxVarintLen64 {
			return nil, ErrTruncated
		}
	}
	if plen > 1<<31 {
		return nil, fmt.Errorf("codec: implausible payload length %d", plen)
	}
	body := make([]byte, plen+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	full := append(head, lenBuf...)
	full = append(full, body...)
	payload, _, err := decodeFramePrefix(kind, full)
	if err != nil {
		return nil, err
	}
	return payload, nil
}
