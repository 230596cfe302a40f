package core

import "math"

// radixCutoff is the length below which SortKeys runs an insertion
// sort: eight counting passes cost more than n²/4 word moves there.
const radixCutoff = 48

// SortKeys sorts keys ascending by bits [lo, hi) of each word and is
// stable: words that agree on those bits keep their arrival order, and
// the bits outside the range travel with their word untouched, so a
// caller can pack a payload beside the key. scratch must hold at least
// len(keys) words; its contents are overwritten. Nothing is allocated.
//
// Runs of radixCutoff words or more take an 8-bit LSD radix sort: one
// scan counts every digit, a digit on which all keys agree is skipped,
// and every other digit costs one scatter between keys and scratch.
// The work depends on the keys only through the skipped digits, never
// through their order — a comparison sort on the same words pays a
// branch miss per comparison whenever the input is new to the branch
// predictor, which on a summary's hot path is every call.
//
//sketch:hotpath
func SortKeys(keys, scratch []uint64, lo, hi uint) {
	n := len(keys)
	width := hi - lo
	mask := ^uint64(0) >> (64 - width)
	if n < radixCutoff {
		for i := 1; i < n; i++ {
			w := keys[i]
			k := w >> lo & mask
			j := i
			for ; j > 0 && keys[j-1]>>lo&mask > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = w
		}
		return
	}
	digits := int(width+7) / 8
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
//
//sketch:hotpath
func FloatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// KeyFloat is the inverse of FloatKey.
//
//sketch:hotpath
func KeyFloat(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// SortFloats sorts vs ascending in FloatKey order through SortKeys.
// scratch must hold at least 2·len(vs) words; nothing is allocated.
//
//sketch:hotpath
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
