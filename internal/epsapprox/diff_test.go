package epsapprox

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
)

// cellPoint returns the centre of Morton cell c of the unit box: the
// 32-bit cell index de-interleaved into a 16-bit column and row. Two
// points share a Morton key exactly when they share a cell.
func cellPoint(c uint32) gen.Point {
	var qx, qy uint32
	for b := uint(0); b < 16; b++ {
		qx |= (c >> (2 * b) & 1) << b
		qy |= (c >> (2*b + 1) & 1) << b
	}
	return gen.Point{X: (float64(qx) + 0.5) / 65535, Y: (float64(qy) + 0.5) / 65535}
}

// pointSource hands out stream points. Tie-free sources walk the cells
// with an odd stride, so no two points of a run ever share a key; tied
// sources fold the walk onto 64 cells, so nearly all of them do.
type pointSource struct {
	next uint32
	tied bool
}

func (ps *pointSource) point() gen.Point {
	ps.next += 0x9E3779B1
	if ps.tied {
		return cellPoint(ps.next >> 26 << 13)
	}
	return cellPoint(ps.next)
}

// diffPair is one logical summary held by the cached-key Summary and
// by the closure-sort oracle; spare is the reused decode target.
type diffPair struct {
	got, spare *Summary
	ref        *refSummary
}

// runOps interprets prog against two summaries of block size s and
// returns every frame the run encoded. With an oracle attached (ref
// true) it fails on the first byte the two implementations disagree
// on.
func runOps(t *testing.T, s int, prog []byte, tied, ref bool) [][]byte {
	t.Helper()
	src := &pointSource{tied: tied}
	var pairs [2]*diffPair
	for i := range pairs {
		pairs[i] = &diffPair{got: New(s, unitBox, uint64(i)+1), spare: new(Summary)}
		if ref {
			pairs[i].ref = newRef(s, unitBox, uint64(i)+1)
		}
	}
	var frames [][]byte
	encode := func(step int, dp *diffPair) []byte {
		got, err := dp.got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, got)
		if ref {
			want, err := dp.ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: frame differs from the oracle's (%d vs %d bytes)", step, len(got), len(want))
			}
		}
		if err := dp.got.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		return got
	}
	// Merging two summaries back and forth grows n like Fibonacci
	// numbers; past this many merges the op reads as an update, long
	// before the weight nears 2^64.
	merges := 40
	for step := 0; step < len(prog); step++ {
		op := prog[step]
		dp, other := pairs[op>>7], pairs[1-op>>7]
		if op%4 == 2 {
			if merges--; merges < 0 {
				op = 0
			}
		}
		switch op % 4 {
		case 0, 1:
			for k := int(op>>2)%32 + 1; k > 0; k-- {
				p := src.point()
				dp.got.Update(p)
				if ref {
					dp.ref.Update(p)
				}
			}
		case 2:
			if err := dp.got.Merge(other.got); err != nil {
				t.Fatal(err)
			}
			if ref {
				if err := dp.ref.Merge(other.ref); err != nil {
					t.Fatal(err)
				}
			}
			encode(step, other) // the source must come through unchanged
		case 3:
			frame := encode(step, dp)
			if err := dp.spare.UnmarshalBinary(frame); err != nil {
				t.Fatalf("step %d: own frame rejected: %v", step, err)
			}
			dp.got, dp.spare = dp.spare, dp.got
			if ref {
				dec := new(refSummary)
				if err := dec.UnmarshalBinary(frame); err != nil {
					t.Fatal(err)
				}
				dp.ref = dec
			}
		}
		encode(step, dp)
	}
	return frames
}

func randomProgram(seed uint64, n int) []byte {
	rng := gen.NewRNG(seed)
	prog := make([]byte, n)
	for i := range prog {
		prog[i] = byte(rng.Uint64())
	}
	return prog
}

// TestDifferentialOracle: on streams with no tied Morton keys, seeded
// random Update / Merge / round-trip sequences must leave the
// cached-key Summary and the closure-sort oracle byte-identical.
func TestDifferentialOracle(t *testing.T) {
	for _, s := range []int{1, 2, 7, 32} {
		t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				runOps(t, s, randomProgram(seed, 400), false, true)
			}
		})
	}
}

// TestTiedKeysDeterministic: with tied keys the oracle's unstable sort
// is free to order equal keys differently, so bytes are not compared
// against it — but the stable cached-key sort must repeat itself
// exactly from run to run, and keep every invariant.
func TestTiedKeysDeterministic(t *testing.T) {
	for _, s := range []int{3, 16} {
		prog := randomProgram(uint64(s), 400)
		a, b := runOps(t, s, prog, true, false), runOps(t, s, prog, true, false)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("s=%d: frame %d differs between two runs of one program", s, i)
			}
		}
	}
}

// FuzzDifferential lets the fuzzer write the operation sequence: the
// tie-free reading of it is held against the oracle, the tied reading
// against a second run of itself.
func FuzzDifferential(f *testing.F) {
	f.Add(uint8(2), []byte{0xfc, 0x7d, 2, 3, 0x82, 0x83, 0xfd, 2})
	f.Add(uint8(0), []byte{1, 0x81, 2, 0x82, 3, 0x83})
	f.Add(uint8(31), []byte{0xff, 0xff, 0x7f, 0x7f, 2, 0x82, 3})
	f.Fuzz(func(t *testing.T, size uint8, prog []byte) {
		s := int(size)%40 + 1
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runOps(t, s, prog, false, true)
		a, b := runOps(t, s, prog, true, false), runOps(t, s, prog, true, false)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("tied keys: frame %d differs between two runs", i)
			}
		}
	})
}

// TestHalveMatchesBranchy holds the branch-free halve to the branchy
// one on operands a summary never hands it — unequal lengths, so the
// merge loop ends with one operand's tail and the output size depends
// on the draw — under both draws of the alternation, with ties across
// the operands. Points and keys must match bit for bit.
func TestHalveMatchesBranchy(t *testing.T) {
	// keyed returns n points whose sorted keys are drawn from [lo, hi);
	// each point names its operand and position, in coordinates that
	// use every mantissa bit.
	keyed := func(n int, lo, hi uint32, tag float64) block {
		rng := gen.NewRNG(uint64(n)*31 + uint64(lo))
		b := block{make([]gen.Point, n), make([]uint32, n)}
		for j := range b.keys {
			b.keys[j] = lo + uint32(rng.Uint64()%uint64(hi-lo))
		}
		slices.Sort(b.keys)
		for j := range b.pts {
			b.pts[j] = gen.Point{X: tag + rng.Float64(), Y: float64(j) / 3}
		}
		return b
	}
	seedFor := func(skip bool) uint64 {
		for seed := uint64(1); ; seed++ {
			if gen.NewRNG(seed).Bool() == skip {
				return seed
			}
		}
	}
	for _, tc := range []struct {
		name string
		a, b block
	}{
		{"a's tail, odd total", keyed(9, 0, 40, 1), keyed(4, 0, 20, 2)},
		{"b's tail, odd total", keyed(4, 0, 20, 1), keyed(9, 10, 40, 2)},
		{"a's tail, even total", keyed(300, 0, 64, 1), keyed(18, 0, 32, 2)},
		{"b's tail, even total", keyed(7, 5, 10, 1), keyed(11, 0, 64, 2)},
		{"one side empty", keyed(5, 0, 8, 1), block{}},
		{"other side empty", block{}, keyed(6, 0, 8, 2)},
	} {
		for _, skip := range []bool{false, true} {
			got, want := New(8, unitBox, seedFor(skip)), New(8, unitBox, seedFor(skip))
			g, w := got.halve(new(runs), tc.a, tc.b), refHalve(want, tc.a, tc.b)
			if len(g.pts) != len(w.pts) || len(g.keys) != len(w.keys) {
				t.Fatalf("%s, skip=%v: kept %d points, the branchy halve %d", tc.name, skip, len(g.pts), len(w.pts))
			}
			for j := range w.pts {
				if g.pts[j] != w.pts[j] || g.keys[j] != w.keys[j] {
					t.Fatalf("%s, skip=%v: point %d is %v/%d, want %v/%d", tc.name, skip, j, g.pts[j], g.keys[j], w.pts[j], w.keys[j])
				}
			}
		}
	}
}

// TestOracleOnUniformStream holds the two implementations together on
// the kind of input the served path sees: float points at the
// registry's example parameters, summarized on four edges and merged
// up a tree, every frame compared.
func TestOracleOnUniformStream(t *testing.T) {
	const eps = 0.05
	var got []*Summary
	var ref []*refSummary
	for i, part := range gen.PartitionRandomSizes(gen.UniformPoints(40000, 12), 4, 5) {
		g := NewEpsilon(eps, unitBox, uint64(i))
		r := newRef(g.BlockSize(), unitBox, uint64(i))
		for _, p := range part {
			g.Update(p)
			r.Update(p)
		}
		got, ref = append(got, g), append(ref, r)
	}
	same := func(g *Summary, r *refSummary) {
		t.Helper()
		a, _ := g.MarshalBinary()
		b, _ := r.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("frame differs from the oracle's")
		}
	}
	for i := range got {
		same(got[i], ref[i])
	}
	for _, m := range [][2]int{{0, 1}, {2, 3}, {0, 2}} {
		if err := got[m[0]].Merge(got[m[1]]); err != nil {
			t.Fatal(err)
		}
		if err := ref[m[0]].Merge(ref[m[1]]); err != nil {
			t.Fatal(err)
		}
		same(got[m[0]], ref[m[0]])
	}
}
