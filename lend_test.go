package mergesum_test

import (
	"bytes"
	"encoding"
	"reflect"
	"testing"

	mergesum "repro"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestKeepsOnlyItsStateInterleaved: the families that lend — the four
// that sort, and the three frequent-item families — borrow their sort,
// merge, compress, prune and codec runs for each call and give them
// back before it returns. Two summaries of a family — at two parameter
// sets, so block and run sizes differ — built call by call in turn, so
// that every call takes the runs the other summary's call just gave
// back, must encode to exactly the bytes of the same two built one
// after the other. A summary that kept a run it gave back would find it
// overwritten. Nor may its core.Index tables end larger than a fresh
// summary's of the same parameters: an index a merge used as scratch
// would keep the merge's size.
func TestKeepsOnlyItsStateInterleaved(t *testing.T) {
	type summary interface {
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	}
	box := mergesum.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}
	uvals := func(seed uint64) []uint64 {
		vs := gen.LogNormalValues(5000, 0, 1, seed)
		us := make([]uint64, len(vs))
		for i, v := range vs {
			us[i] = min(uint64(v*4096), 1<<16-1)
		}
		return us
	}
	items := func(seed uint64) []mergesum.Item { return gen.NewZipf(1<<12, 1.1, seed).Stream(5000) }
	for _, f := range []struct {
		name  string
		mk    func(variant int) summary
		feed  func(s summary, seed uint64)
		merge func(dst, src summary) error
	}{
		{"qdigest",
			func(v int) summary { return mergesum.NewQDigest(16, []float64{0.02, 0.05}[v]) },
			func(s summary, seed uint64) { s.(*mergesum.QDigest).UpdateBatch(uvals(seed)) },
			func(d, s summary) error { return d.(*mergesum.QDigest).Merge(s.(*mergesum.QDigest)) }},
		{"quantile",
			func(v int) summary { return mergesum.NewQuantile([]float64{0.02, 0.05}[v], uint64(v)) },
			func(s summary, seed uint64) {
				s.(*mergesum.Quantile).UpdateBatch(gen.LogNormalValues(5000, 0, 1, seed))
			},
			func(d, s summary) error { return d.(*mergesum.Quantile).Merge(s.(*mergesum.Quantile)) }},
		{"quantile/bounded",
			func(v int) summary { return mergesum.NewQuantileHybrid([]float64{0.02, 0.05}[v], uint64(v)) },
			func(s summary, seed uint64) {
				s.(*mergesum.Quantile).UpdateBatch(gen.LogNormalValues(50000, 0, 1, seed))
			},
			func(d, s summary) error { return d.(*mergesum.Quantile).Merge(s.(*mergesum.Quantile)) }},
		{"rangecount",
			func(v int) summary { return mergesum.NewRangeCounter([]float64{0.05, 0.25}[v], box, uint64(v)) },
			func(s summary, seed uint64) {
				r := s.(*mergesum.RangeCounter)
				for _, p := range gen.UniformPoints(5000, seed) {
					r.Update(p)
				}
			},
			func(d, s summary) error { return d.(*mergesum.RangeCounter).Merge(s.(*mergesum.RangeCounter)) }},
		{"gk",
			func(v int) summary { return mergesum.NewGK([]float64{0.02, 0.05}[v]) },
			func(s summary, seed uint64) { s.(*mergesum.GK).UpdateBatch(gen.LogNormalValues(5000, 0, 1, seed)) },
			func(d, s summary) error { return d.(*mergesum.GK).Merge(s.(*mergesum.GK)) }},
		{"mg",
			func(v int) summary { return mergesum.NewMisraGries([]int{64, 300}[v]) },
			func(s summary, seed uint64) {
				m := s.(*mergesum.MisraGries)
				for _, x := range items(seed) {
					m.Update(x, 1) // a prune on every miss once full
				}
			},
			func(d, s summary) error {
				return d.(*mergesum.MisraGries).MergeLowError(s.(*mergesum.MisraGries))
			}},
		{"spacesaving",
			func(v int) summary { return mergesum.NewSpaceSaving([]int{64, 300}[v]) },
			func(s summary, seed uint64) { s.(*mergesum.SpaceSaving).UpdateBatch(items(seed)) },
			func(d, s summary) error {
				return d.(*mergesum.SpaceSaving).MergeLowError(s.(*mergesum.SpaceSaving))
			}},
		{"topk",
			func(v int) summary { return mergesum.NewTopK([]int{16, 64}[v], []int{512, 2048}[v], 4, 11) },
			func(s summary, seed uint64) { s.(*mergesum.TopK).UpdateBatch(items(seed)) },
			func(d, s summary) error { return d.(*mergesum.TopK).Merge(s.(*mergesum.TopK)) }},
	} {
		t.Run(f.name, func(t *testing.T) {
			// The calls one summary of variant v goes through: a batch,
			// a served slot's loop — four frames of other summaries
			// decoded into one reused target, each merged in — a second
			// batch, an encode, and the last merge again.
			type build struct {
				s, src summary
				v      int
			}
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			decode := func(round uint64) func(b *build) {
				return func(b *build) {
					other := f.mk(b.v)
					f.feed(other, 20+10*round+uint64(b.v))
					frame, err := other.MarshalBinary()
					must(err)
					if b.src == nil {
						b.src = f.mk(b.v)
					}
					must(b.src.UnmarshalBinary(frame))
				}
			}
			merge := func(b *build) { must(f.merge(b.s, b.src)) }
			steps := []func(b *build){func(b *build) { f.feed(b.s, uint64(10+b.v)) }}
			for round := range uint64(4) {
				steps = append(steps, decode(round), merge)
			}
			steps = append(steps,
				func(b *build) { f.feed(b.s, uint64(90+b.v)) },
				func(b *build) { _, err := b.s.MarshalBinary(); must(err) },
				merge,
			)
			encode := func(b *build) []byte {
				frame, err := b.s.MarshalBinary()
				must(err)
				return frame
			}
			var alone [2][]byte
			for v := range 2 {
				b := &build{s: f.mk(v), v: v}
				for _, step := range steps {
					step(b)
				}
				alone[v] = encode(b)
			}
			turns := [2]*build{{s: f.mk(0), v: 0}, {s: f.mk(1), v: 1}}
			for _, step := range steps {
				step(turns[0])
				step(turns[1])
			}
			for v, b := range turns {
				if !bytes.Equal(encode(b), alone[v]) {
					t.Fatalf("variant %d: built in turn with another summary, it encodes differently from built alone", v)
				}
				if got, want := indexSlots(reflect.ValueOf(b.s)), indexSlots(reflect.ValueOf(f.mk(v))); got > want {
					t.Errorf("variant %d: its item tables hold %d slots where a fresh summary's hold %d", v, got, want)
				}
			}
		})
	}
}

// indexSlots is the number of core.Index slots v reaches through its
// pointers and fields.
func indexSlots(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return indexSlots(v.Elem())
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[core.Index]() {
			return (*core.Index)(v.Addr().UnsafePointer()).Cap()
		}
		n := 0
		for i := range v.NumField() {
			n += indexSlots(v.Field(i))
		}
		return n
	}
	return 0
}
