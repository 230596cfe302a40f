package core

// SelectKth returns the k-th smallest element (0-indexed) of vals,
// partially reordering vals in place. Quickselect with median-of-three
// pivots: expected O(len(vals)), against the O(m log m) full sort a
// caller that needs one order statistic would otherwise pay (mg's
// prune needs only its cut value, a bottom-k quantile one sample, by
// FloatKey). It is written for words, not generically: a type-parameter
// instance took twice as long on runs of 100 words (2 vCPU).
func SelectKth(vals []uint64, k int) uint64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		// Hoare partition: afterwards vals[lo..j] <= pivot <= vals[j+1..hi].
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if vals[i] >= pivot {
					break
				}
			}
			for {
				j--
				if vals[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			vals[i], vals[j] = vals[j], vals[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return vals[lo]
}
