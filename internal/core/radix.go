package core

import (
	"math"
	"math/bits"
)

// radixCutoff is the length below which SortKeys runs an insertion
// sort: eight counting passes cost more than n²/4 word moves there.
const radixCutoff = 48

// lsb has the lowest bit of every byte set.
const lsb = 0x0101010101010101

// windowMax is the longest run SortKeys first tries to sort on a 16-bit
// window (windowSort): past it, a window's 65,536 buckets hold too many
// keys each for one insertion pass to finish the order.
const windowMax = 1024

// SortKeys sorts keys ascending by bits [lo, hi) of each word and is
// stable: words that agree on those bits keep their arrival order, and
// the bits outside the range travel with their word untouched, so a
// caller can pack a payload beside the key. scratch must hold at least
// len(keys) words; its contents are overwritten. Nothing is allocated.
//
// Runs shorter than radixCutoff take an insertion sort. Runs of up to
// windowMax keys wider than four bytes that differ in more than 16 bits
// and in five bytes or more — more LSD passes than the window path
// costs — are radix-sorted on the top 16 bits that differ, then
// finished by an insertion pass (windowSort); the rest, and a run whose
// insertion pass overruns its budget, take an 8-bit LSD radix sort
// (lsdSort). The radix passes
// depend on the keys only through their spread, never through their
// order, and the window path's insertion pass is held to a few moves a
// key — a comparison sort on the same words pays a branch miss per
// comparison whenever the input is new to the branch predictor, which
// on a summary's hot path is every call.
func SortKeys(keys, scratch []uint64, lo, hi uint) {
	mask := ^uint64(0) >> (64 - (hi - lo))
	if len(keys) < radixCutoff {
		insertionSort(keys, lo, mask, len(keys)*len(keys))
		return
	}
	if len(keys) <= windowMax && hi-lo > 32 && windowSort(keys, scratch, lo, mask) {
		return
	}
	lsdSort(keys, scratch, lo, mask)
}

// insertionSort sorts keys stably by w>>lo&mask, moving at most budget
// words; it reports false, keys then partly sorted, if that is not
// enough. The order it leaves keeps every two equal keys as they were,
// so a stable sort can start from it.
func insertionSort(keys []uint64, lo uint, mask uint64, budget int) bool {
	for i := 1; i < len(keys); i++ {
		w := keys[i]
		k := w >> lo & mask
		j := i
		for ; j > 0 && keys[j-1]>>lo&mask > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = w
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// windowSort sorts keys that differ in more than 16 bits on the top 16
// bits in which they differ: two stable counting passes with one
// histogram each, after which only keys that share those 16 bits are
// out of order, and an insertion pass over the whole key finishes under
// a budget of two moves per key. It reports false, before any key has
// moved, when the LSD sort would cost no more — the keys differ in 16
// bits or fewer, or in fewer than five bytes — or when the windows look
// crowded: clustered keys, or keys that differ mostly below the window.
// It reports false after the passes when the budget runs out; keys then
// holds a stable reordering of its input, which the LSD sort takes as
// it is.
func windowSort(keys, scratch []uint64, lo uint, mask uint64) bool {
	n := len(keys)
	first := keys[0]
	var diff uint64
	for _, w := range keys {
		diff |= w ^ first
	}
	diff = diff >> lo & mask
	top := bits.Len64(diff)
	if top-bits.TrailingZeros64(diff) <= 16 || varyingDigits(diff) < 5 {
		return false
	}
	shift := lo + uint(top) - 16
	if crowded(keys, shift) {
		return false
	}
	var hist [2][256]uint32
	for _, w := range keys {
		hist[0][uint8(w>>shift)]++
		hist[1][uint8(w>>(shift+8))]++
	}
	src, dst := keys, scratch[:n]
	for d := range hist {
		h, s := &hist[d], shift+uint(8*d)
		if h[uint8(first>>s)] == uint32(n) {
			continue // the window's low byte is the same in every key
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, w := range src {
			b := uint8(w >> s)
			dst[h[b]] = w
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return insertionSort(keys, lo, mask, 2*n)
}

// crowded reports whether the 16-bit windows at shift look too full for
// an insertion pass of about n moves. It pairs each key with another
// picked by Fibonacci hashing of its position — so a run whose keys
// repeat a pattern in order cannot hide its clusters — and counts the
// pairs that share a window: about c·n, where c is the chance that two
// keys do, against c·n²/4 moves of insertion. A crowded run is told
// after a few keys.
func crowded(keys []uint64, shift uint) bool {
	m := uint64(len(keys) - 1)
	shared := 0
	var x uint64
	for i, w := range keys {
		x += 0x9e3779b97f4a7c15 // i·2^64/φ
		j := int(x >> 32 * m >> 32)
		j += int(uint(i-j-1) >> 63)                          // skip i itself
		shared += int(((w^keys[j])>>shift&0xffff - 1) >> 63) // 1 when the windows match
		if shared > 4 {
			return true
		}
	}
	return false
}

// varyingDigits counts the bytes of diff that are not zero: the digits
// on which the keys do not all agree, one LSD pass each.
func varyingDigits(diff uint64) int {
	d := diff | diff>>1 | diff>>2 | diff>>3 | diff>>4 | diff>>5 | diff>>6 | diff>>7
	return bits.OnesCount64(d & lsb)
}

// lsdSort is SortKeys' 8-bit LSD radix sort: one scan counts every
// digit, a digit on which all keys agree is skipped, and every other
// digit costs one scatter between keys and scratch.
func lsdSort(keys, scratch []uint64, lo uint, mask uint64) {
	n := len(keys)
	digits := (bits.Len64(mask) + 7) / 8
	var hist [8][256]uint32
	// One scan counts every digit. Unrolled, in two widths: a loop over
	// the digits costs as much as the scatters it prepares.
	if digits <= 4 {
		for _, w := range keys {
			k := w >> lo & mask
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
			hist[2][uint8(k>>16)]++
			hist[3][uint8(k>>24)]++
		}
	} else {
		for _, w := range keys {
			k := w >> lo & mask
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
			hist[2][uint8(k>>16)]++
			hist[3][uint8(k>>24)]++
			hist[4][uint8(k>>32)]++
			hist[5][uint8(k>>40)]++
			hist[6][uint8(k>>48)]++
			hist[7][uint8(k>>56)]++
		}
	}
	src, dst := keys, scratch[:n]
	first := keys[0] >> lo & mask
	for d := 0; d < digits; d++ {
		h := &hist[d]
		shift := lo + uint(8*d)
		if h[uint8(first>>(8*d))] == uint32(n) {
			continue // every key has this digit
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		dmask := mask >> (8 * d) & 0xff
		for _, w := range src {
			b := w >> shift & dmask
			dst[h[b]] = w
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// FloatKey maps v to a word whose unsigned order is v's numeric order:
// −Inf < … < −0 < +0 < … < +Inf, with NaNs beyond the infinities on the
// side of their sign bit. Distinct bit patterns get distinct keys (−0
// sorts before +0, where < calls them equal) and KeyFloat inverts the
// map exactly.
func FloatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// KeyFloat is the inverse of FloatKey.
func KeyFloat(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// SortFloats sorts vs ascending in FloatKey order through SortKeys.
// scratch must hold at least 2·len(vs) words; nothing is allocated.
func SortFloats(vs []float64, scratch []uint64) {
	n := len(vs)
	keys := scratch[:n]
	for i, v := range vs {
		keys[i] = FloatKey(v)
	}
	SortKeys(keys, scratch[n:], 0, 64)
	for i, k := range keys {
		vs[i] = KeyFloat(k)
	}
}
