package gk

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// refFlush is flush as this package shipped it before the one-sweep
// version — an insert sweep that writes the whole merged run, then
// compress over it — kept as the differential oracle: flush must leave
// the same tuples, bit for bit, after every operation.
func refFlush(s *Summary) {
	if len(s.buf) == 0 {
		return
	}
	core.SortFloats(s.buf, make([]uint64, 2*len(s.buf)))
	out := make([]tuple, 0, len(s.tuples)+len(s.buf))
	ti := 0
	for _, v := range s.buf {
		for ti < len(s.tuples) && s.tuples[ti].v < v {
			out = append(out, s.tuples[ti])
			ti++
		}
		var delta uint64
		if len(out) == 0 && ti == 0 {
			delta = 0 // new minimum: exact
		} else if ti >= len(s.tuples) {
			delta = 0 // new maximum: exact
		} else {
			// Standard GK insert before tuple ti.
			next := s.tuples[ti]
			delta = next.g + next.delta
			if delta > 0 {
				delta--
			}
		}
		out = append(out, tuple{v: v, g: 1, delta: delta})
	}
	out = append(out, s.tuples[ti:]...)
	s.tuples = out
	s.buf = s.buf[:0]
	s.compress(s.tuples)
}

// refUpdate is Update on the oracle's flush. UpdateBatch is documented
// to match the Update loop, so the oracle has no batch of its own.
func refUpdate(s *Summary, v float64) {
	s.buf = append(s.buf, v)
	s.n++
	if len(s.buf) >= s.bufCap {
		refFlush(s)
	}
}

// flushPair holds one logical summary twice: got on this package's
// flush, want on the oracle's.
type flushPair struct {
	t         testing.TB
	got, want *Summary
}

func newFlushPair(t testing.TB, eps float64) *flushPair {
	return &flushPair{t: t, got: New(eps), want: New(eps)}
}

// sameState compares two summaries field by field, values by their
// bits (so −0 and +0 differ).
func sameState(a, b *Summary) error {
	if a.eps != b.eps || a.n != b.n || len(a.tuples) != len(b.tuples) || len(a.buf) != len(b.buf) {
		return fmt.Errorf("n %d vs %d, %d vs %d tuples, %d vs %d pending", a.n, b.n, len(a.tuples), len(b.tuples), len(a.buf), len(b.buf))
	}
	for i, t := range a.tuples {
		if u := b.tuples[i]; math.Float64bits(t.v) != math.Float64bits(u.v) || t.g != u.g || t.delta != u.delta {
			return fmt.Errorf("tuple %d: %+v vs %+v", i, t, u)
		}
	}
	for i, v := range a.buf {
		if math.Float64bits(v) != math.Float64bits(b.buf[i]) {
			return fmt.Errorf("pending value %d: %v vs %v", i, v, b.buf[i])
		}
	}
	return nil
}

func (fp *flushPair) check(op string) {
	fp.t.Helper()
	if err := sameState(fp.got, fp.want); err != nil {
		fp.t.Fatalf("after %s: differs from the two-pass flush: %v", op, err)
	}
	if err := fp.got.checkInvariants(); err != nil {
		fp.t.Fatalf("after %s: %v", op, err)
	}
}

func (fp *flushPair) update(v float64) {
	fp.t.Helper()
	fp.got.Update(v)
	refUpdate(fp.want, v)
	fp.check("Update")
}

func (fp *flushPair) batch(vs []float64) {
	fp.t.Helper()
	fp.got.UpdateBatch(vs)
	for _, v := range vs {
		refUpdate(fp.want, v)
	}
	fp.check("UpdateBatch")
}

// merge folds a summary of vs into both sides, each built on its own
// side's flush; Merge flushes both operands first.
func (fp *flushPair) merge(vs []float64) {
	fp.t.Helper()
	og, ow := New(fp.got.eps), New(fp.want.eps)
	og.UpdateBatch(vs)
	for _, v := range vs {
		refUpdate(ow, v)
	}
	refFlush(fp.want)
	refFlush(ow)
	if err := fp.got.Merge(og); err != nil {
		fp.t.Fatal(err)
	}
	if err := fp.want.Merge(ow); err != nil {
		fp.t.Fatal(err)
	}
	if err := sameState(og, ow); err != nil {
		fp.t.Fatalf("merge operand differs from the two-pass flush: %v", err)
	}
	fp.check("Merge")
}

// flush forces both sides' pending inserts into their tuples.
func (fp *flushPair) flush() {
	fp.t.Helper()
	fp.got.Flush()
	refFlush(fp.want)
	fp.check("Flush")
}

// decode replaces both sides by their own frames, decoded; the frames
// must be equal bytes.
func (fp *flushPair) decode() {
	fp.t.Helper()
	g, err := fp.got.MarshalBinary()
	if err != nil {
		fp.t.Fatal(err)
	}
	refFlush(fp.want)
	w, err := fp.want.MarshalBinary()
	if err != nil {
		fp.t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		fp.t.Fatal("frame differs from the two-pass flush's")
	}
	fp.got, fp.want = new(Summary), new(Summary)
	if err := fp.got.UnmarshalBinary(g); err != nil {
		fp.t.Fatal(err)
	}
	if err := fp.want.UnmarshalBinary(w); err != nil {
		fp.t.Fatal(err)
	}
	fp.check("decode")
}

func (fp *flushPair) reset() {
	fp.t.Helper()
	fp.got.Reset()
	fp.want.Reset()
	fp.check("Reset")
}

// runFlushProgram interprets prog as operations on a flushPair: single
// updates and batches over a 32-step lattice (ties), ±0, ±Inf and
// 1e300; ascending, descending and all-equal runs; merges, flushes,
// decodes and resets.
func runFlushProgram(t testing.TB, prog []byte) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0.25, -0.25}
	value := func() float64 {
		b := next()
		if b >= 248 {
			return special[b-248]
		}
		return float64(int(b%32)-16) / 4
	}
	values := func() []float64 {
		vs := make([]float64, next()%64)
		for i := range vs {
			vs[i] = value()
		}
		return vs
	}
	fp := newFlushPair(t, []float64{0.2, 0.1, 0.05, 0.02}[next()%4])
	for len(prog) > 0 {
		switch next() % 8 {
		case 0, 1, 2:
			fp.update(value())
		case 3:
			fp.batch(values())
		case 4: // a run: ascending, descending or all equal
			vs := make([]float64, next()%64)
			v, step := value(), float64(int(next()%9)-4)/8
			for i := range vs {
				vs[i] = v + float64(i)*step
			}
			fp.batch(vs)
		case 5:
			fp.merge(values())
		case 6:
			fp.decode()
		case 7:
			if next()%2 == 0 {
				fp.reset()
			} else {
				fp.flush()
			}
		}
	}
	fp.decode()
}

// TestFlushMatchesTwoPass holds the one-sweep flush to the insert sweep
// plus compress it replaced: on the stream shapes GK is tested on, fed
// by Update and by batches of every size, merged and round-tripped,
// and on 300 seeded byte programs.
func TestFlushMatchesTwoPass(t *testing.T) {
	const n = 20000
	ties := make([]float64, n)
	equal := make([]float64, n)
	signed := gen.NormalValues(n, 8)
	for i := range ties {
		ties[i] = float64(i % 7)
		equal[i] = 1.5
	}
	for i := 0; i < n; i += 97 {
		signed[i] = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}[i%4]
	}
	for name, vals := range map[string][]float64{
		"uniform":    gen.UniformValues(n, 1),
		"lognormal":  gen.LogNormalValues(n, 0, 1, 2),
		"ascending":  gen.SortedValues(n),
		"descending": gen.ReversedValues(n),
		"sawtooth":   gen.SawtoothValues(n, 500),
		"ties":       ties,
		"all-equal":  equal,
		"zeros-inf":  signed,
	} {
		for _, eps := range []float64{0.1, 0.02, 0.005} {
			t.Run(fmt.Sprintf("%s/eps=%v", name, eps), func(t *testing.T) {
				fp := newFlushPair(t, eps)
				rest := vals
				for i, size := 0, 1; len(rest) > 0; i, size = i+1, size*3%1001+1 {
					chunk := rest[:min(size, len(rest))]
					rest = rest[len(chunk):]
					switch i % 4 {
					case 0:
						for _, v := range chunk {
							fp.update(v)
						}
					case 1, 2:
						fp.batch(chunk)
					case 3:
						fp.merge(chunk)
					}
					if i%16 == 15 {
						fp.decode()
					}
				}
				fp.decode()
			})
		}
	}
	// A peer's frame may hold whatever tuples the invariants allow — a
	// first tuple with g > 1 and Δ > 0 among them, which this package's
	// flush and Merge never produce — and a new minimum must still enter
	// exact, not with the Δ of the old first tuple to its right.
	for _, below := range [][]float64{{0}, {-3, 0.5, 0.5}, {0.25, 2, 6, 12}} {
		frame := frameOf(0.1, 100, tuple{1, 3, 2}, tuple{5, 19, 2}, tuple{7, 21, 0}, tuple{8, 21, 0}, tuple{9, 21, 0}, tuple{10, 15, 0})
		fp := newFlushPair(t, 0.1)
		if err := fp.got.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		if err := fp.want.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		fp.batch(below)
		fp.flush()
	}
	t.Run("programs", func(t *testing.T) {
		var seed uint64
		defer func() { // a failing pair stops the test mid-program: name it
			if t.Failed() {
				t.Logf("program seed %d", seed)
			}
		}()
		for seed = 1; seed <= 300; seed++ {
			rng := gen.NewRNG(seed)
			prog := make([]byte, 300)
			for i := range prog {
				prog[i] = byte(rng.Uint64())
			}
			runFlushProgram(t, prog)
		}
	})
}

// FuzzFlushMatchesTwoPass lets the fuzzer write the operation sequence
// (see runFlushProgram) and holds the one-sweep flush to the oracle's
// tuples after every step.
func FuzzFlushMatchesTwoPass(f *testing.F) {
	// Ties and both zeros across flushes, a merge, a decode, a reset.
	f.Add([]byte{3, 3, 40, 16, 16, 16, 248, 249, 249, 248, 16, 0, 1, 2, 5, 20, 16, 17, 249, 248, 6, 7, 1, 0, 20})
	// Ascending, all-equal and descending runs, with infinities.
	f.Add([]byte{1, 4, 60, 0, 6, 4, 60, 16, 4, 4, 60, 31, 0, 250, 251, 250, 3, 20, 251, 250, 252, 253, 7, 0, 0, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		runFlushProgram(t, prog)
	})
}
