package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/countsketch"
	"repro/internal/distinct"
	"repro/internal/epsapprox"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/gk"
	"repro/internal/kernel"
	"repro/internal/mg"
	"repro/internal/qdigest"
	"repro/internal/randquant"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
	"repro/internal/sampling"
	"repro/internal/spacesaving"
	"repro/internal/stats"
	"repro/internal/topk"
)

// A chunk is one batch of raw records as an edge would see them: the
// same records viewed as Zipf-distributed items, log-normal values
// (and their integer image for the fixed-universe q-digest) and planar
// points, plus the exact oracles the output checks compare against.
type chunk struct {
	items  []core.Item
	values []float64
	uvals  []uint64
	points []gen.Point

	freq  *exact.FreqTable
	quant *exact.Quantiles
	usort []uint64 // uvals ascending
}

// qdigestLogU is the q-digest's universe: values are mapped to
// [0, 2^16) by uvalOf.
const qdigestLogU = 16

func uvalOf(v float64) uint64 {
	u := uint64(v * 4096)
	if u > 1<<qdigestLogU-1 {
		u = 1<<qdigestLogU - 1
	}
	return u
}

// wideItem maps a Zipf rank identity to a full-width 64-bit identifier
// (a fixed bijection, top bit set), the shape of a hashed flow key.
// Every identifier then encodes to the same number of varint bytes, so
// frame sizes — and answer_bytes — depend on the summaries, not on which
// small integers a seed happened to make heavy.
func wideItem(x core.Item) core.Item {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return core.Item(z ^ (z >> 31) | 1<<63)
}

// chunkSource draws successive chunks from one seeded stream per
// record view, so the i-th chunk of a given seed is always the same.
type chunkSource struct {
	zipf *gen.Zipf
	seed uint64
	next uint64
}

func newChunkSource(universe int, seed uint64) *chunkSource {
	return &chunkSource{zipf: gen.NewZipf(universe, 1.1, seed), seed: seed}
}

// draw returns the next chunk of n records with its oracles built.
func (cs *chunkSource) draw(n int) *chunk {
	cs.next++
	s := cs.seed*0x9e3779b97f4a7c15 + cs.next
	items := cs.zipf.Stream(n)
	for i, x := range items {
		items[i] = wideItem(x)
	}
	ch := &chunk{
		items:  items,
		values: gen.LogNormalValues(n, 0, 1, s),
		points: gen.UniformPoints(n, s^0x5bd1e995),
	}
	ch.uvals = make([]uint64, n)
	for i, v := range ch.values {
		ch.uvals[i] = uvalOf(v)
	}
	ch.freq = exact.FreqOf(ch.items)
	ch.quant = exact.QuantilesOf(ch.values)
	ch.usort = append([]uint64(nil), ch.uvals...)
	sort.Slice(ch.usort, func(i, j int) bool { return ch.usort[i] < ch.usort[j] })
	return ch
}

// sizeClass selects a family's parameters: canonical is the registry's
// own Example shape (what an aggregator holds: quantile ≈ 10 KB,
// rangecount ≈ 18 KB, hll ≈ 4 KB …), small is the 0.5–2 KB shape a
// dashboard panel pushes, tiny the couple of hundred bytes of a fleet
// heartbeat.
type sizeClass int

const (
	canonical sizeClass = iota
	small
	tiny
)

var unitBox = exact.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}

// quantileEps is the randomized quantile summary's rank-error
// parameter per size class; the summary does not expose it, and the
// output check needs it as the guarantee.
var quantileEps = [...]float64{canonical: 0.02, small: 0.05, tiny: 0.1}

// family is the harness's view of one registered summary family: how to
// build a fresh summary, how to feed it a chunk, and what its error
// guarantee is. Seeds of hash-based families are fixed (summaries of a
// slot must share them to merge); sampling families take the caller's.
type family struct {
	name   string
	ent    *registry.Entry
	mk     func(c sizeClass, seed uint64) any
	update func(s any, ch *chunk)
}

// pick returns the parameter for a size class.
func pick[T any](c sizeClass, canon, sm, tn T) T {
	return [...]T{canonical: canon, small: sm, tiny: tn}[c]
}

var families = []family{
	{name: "mg",
		mk:     func(c sizeClass, _ uint64) any { return mg.New(pick(c, 64, 64, 16)) },
		update: func(s any, ch *chunk) { s.(*mg.Summary).UpdateBatch(ch.items) }},
	{name: "ss",
		mk:     func(c sizeClass, _ uint64) any { return spacesaving.New(pick(c, 64, 48, 16)) },
		update: func(s any, ch *chunk) { s.(*spacesaving.Summary).UpdateBatch(ch.items) }},
	{name: "gk",
		mk:     func(c sizeClass, _ uint64) any { return gk.New(pick(c, 0.02, 0.05, 0.1)) },
		update: func(s any, ch *chunk) { s.(*gk.Summary).UpdateBatch(ch.values) }},
	{name: "quantile",
		mk:     func(c sizeClass, seed uint64) any { return randquant.NewEpsilon(quantileEps[c], seed) },
		update: func(s any, ch *chunk) { s.(*randquant.Summary).UpdateBatch(ch.values) }},
	{name: "countmin",
		mk:     func(c sizeClass, _ uint64) any { return countmin.New(pick(c, 512, 192, 32), 4, 5) },
		update: func(s any, ch *chunk) { s.(*countmin.Sketch).UpdateBatch(ch.items) }},
	{name: "countsketch",
		mk:     func(c sizeClass, _ uint64) any { return countsketch.New(pick(c, 512, 128, 32), 4, 6) },
		update: func(s any, ch *chunk) { s.(*countsketch.Sketch).UpdateBatch(ch.items) }},
	{name: "bottomk",
		mk:     func(c sizeClass, seed uint64) any { return sampling.NewBottomK(pick(c, 256, 64, 16), seed) },
		update: func(s any, ch *chunk) { s.(*sampling.BottomK).UpdateBatch(ch.values) }},
	{name: "rangecount",
		mk: func(c sizeClass, seed uint64) any {
			return epsapprox.NewEpsilon(pick(c, 0.05, 0.25, 0.4), unitBox, seed)
		},
		update: func(s any, ch *chunk) {
			r := s.(*epsapprox.Summary)
			for _, p := range ch.points {
				r.Update(p)
			}
		}},
	{name: "kernel",
		mk: func(c sizeClass, _ uint64) any { return kernel.NewEpsilon(pick(c, 0.1, 0.3, 0.5)) },
		update: func(s any, ch *chunk) {
			k := s.(*kernel.Kernel)
			for _, p := range ch.points {
				k.Update(p)
			}
		}},
	{name: "qdigest",
		mk:     func(c sizeClass, _ uint64) any { return qdigest.NewEpsilon(qdigestLogU, pick(c, 0.02, 0.05, 0.1)) },
		update: func(s any, ch *chunk) { s.(*qdigest.Digest).UpdateBatch(ch.uvals) }},
	{name: "hll",
		mk:     func(c sizeClass, _ uint64) any { return distinct.NewHLL(pick[uint8](c, 12, 11, 7), 10) },
		update: func(s any, ch *chunk) { s.(*distinct.HLL).UpdateBatch(ch.items) }},
	{name: "kmv",
		mk:     func(c sizeClass, _ uint64) any { return distinct.NewKMV(pick(c, 256, 64, 16), 9) },
		update: func(s any, ch *chunk) { s.(*distinct.KMV).UpdateBatch(ch.items) }},
	{name: "topk",
		mk:     func(c sizeClass, _ uint64) any { return topk.New(pick(c, 16, 8, 4), pick(c, 512, 128, 32), 4, 11) },
		update: func(s any, ch *chunk) { s.(*topk.Tracker).UpdateBatch(ch.items) }},
}

func init() {
	for i := range families {
		ent, ok := registry.ByName(families[i].name)
		if !ok {
			panic("benchmark: family " + families[i].name + " is not registered")
		}
		families[i].ent = ent
	}
	if len(families) != len(registry.Entries()) {
		panic(fmt.Sprintf("benchmark: %d families listed, registry serves %d", len(families), len(registry.Entries())))
	}
}

func familyByName(name string) *family {
	for i := range families {
		if families[i].name == name {
			return &families[i]
		}
	}
	panic("benchmark: unknown family " + name)
}

// summarize builds a fresh summary of ch and returns its wire frame.
func (f *family) summarize(c sizeClass, seed uint64, ch *chunk) (rawFrame, error) {
	s := f.mk(c, seed)
	f.update(s, ch)
	frame, err := f.ent.Encode(s)
	if err != nil {
		return nil, fmt.Errorf("%s: encoding: %w", f.name, err)
	}
	return rawFrame(frame), nil
}

// rawFrame pushes pre-encoded frame bytes through the client API.
type rawFrame []byte

func (r rawFrame) MarshalBinary() ([]byte, error) { return r, nil }

// tally is the exact account of what was pushed into one slot: how many
// times each chunk's frame went in, and the total weight.
type tally struct {
	fam    *family
	class  sizeClass
	chunks []*chunk
	mult   []uint64
	n      uint64
}

func newTally(fam *family, class sizeClass, chunks []*chunk) *tally {
	return &tally{fam: fam, class: class, chunks: chunks, mult: make([]uint64, len(chunks))}
}

func (t *tally) add(i int) {
	t.mult[i]++
	t.n += uint64(len(t.chunks[i].items))
}

func (t *tally) reset() {
	clear(t.mult)
	t.n = 0
}

// errOverBound decodes frame (a slot's final state), checks that its
// weight is exactly what was pushed, and returns the worst observed
// error divided by the family's guarantee (0 for the other eight families).
func (t *tally) errOverBound(frame []byte) (float64, error) {
	s, err := t.fam.ent.Decode(frame)
	if err != nil {
		return 0, fmt.Errorf("%s: decoding final state: %w", t.fam.name, err)
	}
	if got := t.fam.ent.N(s); got != t.n {
		return 0, fmt.Errorf("%s: weight not conserved: slot holds N=%d, pushed Σ N=%d", t.fam.name, got, t.n)
	}
	if t.n == 0 {
		return 0, nil
	}
	// The five families whose guarantee the paper states as a worst-case
	// error bound that an exact oracle can be held against.
	switch v := s.(type) {
	case *mg.Summary:
		fe := stats.MeasureFreq(t.freqTruth(), v.Estimate)
		return float64(fe.MaxAbs) / float64(core.MGBound(t.n, v.K())), nil
	case *spacesaving.Summary:
		fe := stats.MeasureFreq(t.freqTruth(), v.Estimate)
		return float64(fe.MaxAbs) / float64(core.SSBound(t.n, v.K())), nil
	case *gk.Summary:
		v.Flush()
		return t.rankErr(v.Quantile) / v.Epsilon(), nil
	case *randquant.Summary:
		return t.rankErr(v.Quantile) / quantileEps[t.class], nil
	case *qdigest.Digest:
		var worst float64
		for _, q := range []uint64{1 << 8, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1<<16 - 1} {
			var truth uint64
			for i, ch := range t.chunks {
				if t.mult[i] > 0 {
					truth += t.mult[i] * uint64(sort.Search(len(ch.usort), func(j int) bool { return ch.usort[j] > q }))
				}
			}
			if d := math.Abs(float64(v.Rank(q)) - float64(truth)); d > worst {
				worst = d
			}
		}
		return worst / float64(v.ErrorBound()), nil
	}
	return 0, nil
}

// freqTruth is the exact frequency table of everything pushed.
func (t *tally) freqTruth() *exact.FreqTable {
	truth := exact.NewFreqTable()
	for i, ch := range t.chunks {
		if t.mult[i] == 0 {
			continue
		}
		for _, c := range ch.freq.Counters() {
			truth.Add(c.Item, c.Count*t.mult[i])
		}
	}
	return truth
}

// rankErr is stats.MeasureQuantiles over the weighted union of the
// chunks' exact oracles: the worst |rank(q̂(φ)) − φN| ÷ N over the
// standard φ sweep.
func (t *tally) rankErr(quantile func(float64) float64) float64 {
	n := float64(t.n)
	var worst float64
	for _, phi := range stats.DefaultPhis {
		got := quantile(phi)
		var rank uint64
		for i, ch := range t.chunks {
			if t.mult[i] > 0 {
				rank += t.mult[i] * ch.quant.Rank(got)
			}
		}
		if rel := math.Abs(float64(rank)-phi*n) / n; rel > worst {
			worst = rel
		}
	}
	return worst
}
