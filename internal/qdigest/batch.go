package qdigest

// UpdateBatch adds one occurrence of every value in vs (each clamped
// into the universe). The resulting state is identical to calling
// Update(v, 1) for each v in order: the amortized compression triggers
// at exactly the same points, but the leaf base and clamp bound are
// hoisted out of the loop.
//
//sketch:hotpath
func (d *Digest) UpdateBatch(vs []uint64) {
	max := (uint64(1) << d.logU) - 1
	leafBase := uint64(1) << d.logU
	for _, v := range vs {
		if v > max {
			v = max
		}
		d.addLeaf(leafBase+v, 1)
		d.n++
		d.dirty++
		if d.dirty > uint64(d.Size())+16 {
			d.Compress()
		}
	}
	debugAssertSampled(d)
}

// UpdateBatchWeighted adds Count occurrences of every value in vs,
// where each element pairs a universe value with its weight. All
// weights must be >= 1.
//
//sketch:hotpath
func (d *Digest) UpdateBatchWeighted(vs []WeightedValue) {
	max := (uint64(1) << d.logU) - 1
	leafBase := uint64(1) << d.logU
	for _, wv := range vs {
		if wv.Weight == 0 {
			panic("qdigest: zero-weight update")
		}
		v := wv.Value
		if v > max {
			v = max
		}
		d.addLeaf(leafBase+v, wv.Weight)
		d.n += wv.Weight
		d.dirty++
		if d.dirty > uint64(d.Size())+16 {
			d.Compress()
		}
	}
	debugAssertSampled(d)
}

// WeightedValue pairs a universe value with an update weight for
// UpdateBatchWeighted.
type WeightedValue struct {
	Value  uint64
	Weight uint64
}
