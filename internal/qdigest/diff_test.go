package qdigest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
)

// diffPair is one logical digest held twice: by the flat Digest and by
// the map-based oracle. spare is a decode target that round-trips keep
// reusing, so storage recycling is part of what the oracle checks.
type diffPair struct {
	got, spare *Digest
	ref        *refDigest
}

// program feeds the differential interpreter: a byte string consumed
// front to back, zeros once exhausted.
type program struct {
	b []byte
}

func (p *program) byte() byte {
	if len(p.b) == 0 {
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

// value draws a universe value: mostly from a pool of 256 spread-out
// values (so leaves repeat and siblings meet), sometimes a neighbour of
// one, sometimes beyond the universe (clamped by the digest).
func (p *program) value(logU uint8) uint64 {
	stride := uint64(1)
	if logU > 8 {
		stride = uint64(1) << (logU - 8)
	}
	v := uint64(p.byte()) * stride
	switch p.byte() % 8 {
	case 0:
		v += uint64(p.byte())
	case 1:
		v = ^uint64(0) >> (p.byte() % 8)
	}
	return v
}

// frames encodes clones of both sides — encoding compresses, and the
// comparison must not disturb the compress schedule under test.
func (dp *diffPair) frames(t *testing.T) (got, ref []byte) {
	t.Helper()
	got, err := dp.got.Clone().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ref, err = dp.ref.Clone().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return got, ref
}

func (dp *diffPair) check(t *testing.T, step int, op string) {
	t.Helper()
	if dp.got.N() != dp.ref.n || dp.got.Size() != dp.ref.Size() || dp.got.dirty != dp.ref.dirty {
		t.Fatalf("step %d (%s): n/size/dirty = %d/%d/%d, oracle %d/%d/%d", step, op,
			dp.got.N(), dp.got.Size(), dp.got.dirty, dp.ref.n, dp.ref.Size(), dp.ref.dirty)
	}
	got, ref := dp.frames(t)
	if !bytes.Equal(got, ref) {
		t.Fatalf("step %d (%s): frame differs from the oracle's (%d vs %d bytes)", step, op, len(got), len(ref))
	}
}

// runDiff interprets prog against two diffPairs of shape (logU, k) and
// fails on the first byte of divergence between Digest and refDigest.
func runDiff(t *testing.T, logU uint8, k uint64, prog []byte) {
	t.Helper()
	p := &program{b: prog}
	pairs := [2]*diffPair{}
	for i := range pairs {
		pairs[i] = &diffPair{got: New(logU, k), spare: new(Digest), ref: newRef(logU, k)}
	}
	for step := 0; len(p.b) > 0; step++ {
		opByte := p.byte()
		dp, other := pairs[opByte>>7], pairs[1-opByte>>7]
		var op string
		switch opByte % 8 {
		case 0:
			op = "update"
			v, w := p.value(logU), uint64(p.byte())+1
			dp.got.Update(v, w)
			dp.ref.Update(v, w)
		case 1:
			op = "batch"
			vs := make([]uint64, p.byte()%48)
			for i := range vs {
				vs[i] = p.value(logU)
			}
			dp.got.UpdateBatch(vs)
			dp.ref.UpdateBatch(vs)
		case 2:
			op = "weighted"
			vs := make([]WeightedValue, p.byte()%48)
			for i := range vs {
				vs[i] = WeightedValue{Value: p.value(logU), Weight: uint64(p.byte())<<(p.byte()%20) + 1}
			}
			dp.got.UpdateBatchWeighted(vs)
			dp.ref.UpdateBatchWeighted(vs)
		case 3:
			op = "merge"
			if err := dp.got.Merge(other.got); err != nil {
				t.Fatal(err)
			}
			if err := dp.ref.Merge(other.ref); err != nil {
				t.Fatal(err)
			}
			other.check(t, step, "merge source")
		case 4:
			op = "self-merge"
			if err := dp.got.Merge(dp.got); err != nil {
				t.Fatal(err)
			}
			if err := dp.ref.Merge(dp.ref); err != nil {
				t.Fatal(err)
			}
		case 5:
			op = "compress"
			dp.got.Compress()
			dp.ref.Compress()
			if err := dp.got.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 6:
			op = "round-trip"
			got, err := dp.got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dp.ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("step %d: encoded frame differs from the oracle's", step)
			}
			if err := dp.spare.UnmarshalBinary(got); err != nil {
				t.Fatalf("step %d: own frame rejected: %v", step, err)
			}
			dp.got, dp.spare = dp.spare, dp.got
			dec := new(refDigest)
			if err := dec.UnmarshalBinary(ref); err != nil {
				t.Fatal(err)
			}
			dp.ref = dec
		case 7:
			op = "query"
			v := p.value(logU)
			if got, want := dp.got.Rank(v), dp.ref.Rank(v); got != want {
				t.Fatalf("step %d: Rank(%d) = %d, oracle %d", step, v, got, want)
			}
			phi := float64(p.byte()) / 255
			if got, want := dp.got.Quantile(phi), dp.ref.Quantile(phi); got != want {
				t.Fatalf("step %d: Quantile(%v) = %d, oracle %d", step, phi, got, want)
			}
		}
		dp.check(t, step, op)
	}
}

var diffShapes = []struct {
	logU uint8
	k    uint64
}{{1, 1}, {1, 7}, {16, 3}, {16, 40}, {32, 5}, {32, 64}, {62, 2}, {62, 31}}

// TestDifferentialOracle drives seeded random operation sequences
// through the flat Digest and the map-based oracle and requires
// byte-identical frames after every step.
func TestDifferentialOracle(t *testing.T) {
	for _, sh := range diffShapes {
		t.Run(fmt.Sprintf("logU=%d/k=%d", sh.logU, sh.k), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				rng := gen.NewRNG(seed<<8 | uint64(sh.logU))
				prog := make([]byte, 1500)
				for i := range prog {
					prog[i] = byte(rng.Uint64())
				}
				runDiff(t, sh.logU, sh.k, prog)
			}
		})
	}
}

// FuzzDifferential lets the fuzzer write the operation sequence.
func FuzzDifferential(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 0x81, 9, 9, 9, 3, 6, 7, 200, 128})
	f.Add(uint8(2), []byte{1, 40, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 5, 6, 0x83, 7, 1, 1, 1})
	f.Add(uint8(7), []byte{2, 9, 250, 1, 255, 19, 4, 4, 5, 6, 3})
	f.Fuzz(func(t *testing.T, shape uint8, prog []byte) {
		sh := diffShapes[int(shape)%len(diffShapes)]
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runDiff(t, sh.logU, sh.k, prog)
	})
}

// The programs above batch at most 48 values, so they never reach the
// sweep at edge scale (~6,000 leaves) or the multi-pass merges of a
// young slot. Two fixed scenarios do, byte-identical to the oracle after
// every step: fresh digests each taking one 8192-value log-normal batch
// (ε = 0.02, logU = 16), and one served round — a fresh slot absorbing
// 8 decoded edge frames 152 times over, as a merge_heavy slot does.
func TestDifferentialAtScale(t *testing.T) {
	k := NewEpsilon(16, 0.02).K()
	t.Run("edge batch", func(t *testing.T) {
		for i, ch := range edgeChunks(4, 8192) {
			dp := &diffPair{got: New(16, k), ref: newRef(16, k)}
			dp.got.UpdateBatch(ch)
			dp.ref.UpdateBatch(ch)
			dp.check(t, i, "edge batch")
		}
	})
	t.Run("served round", func(t *testing.T) {
		rounds := 152
		if testing.Short() {
			rounds = 20
		}
		frames := edgeFrames(t, 8, 4096)
		srcs, refs := make([]*Digest, len(frames)), make([]*refDigest, len(frames))
		for i, frame := range frames {
			srcs[i], refs[i] = new(Digest), new(refDigest)
			if err := srcs[i].UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if err := refs[i].UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
		}
		dp := &diffPair{got: New(16, k), ref: newRef(16, k)}
		for step := range rounds * len(frames) {
			if err := dp.got.Merge(srcs[step%len(srcs)]); err != nil {
				t.Fatal(err)
			}
			if err := dp.ref.Merge(refs[step%len(refs)]); err != nil {
				t.Fatal(err)
			}
			dp.check(t, step, "merge")
		}
	})
}

// An unsorted frame is not canonical but stays decodable: the decoder
// sorts it, and still rejects duplicates.
func TestUnmarshalUnsortedFrame(t *testing.T) {
	// frame encodes the given nodes of a logU=4 digest in the order
	// given, node i carrying count i+1.
	frame := func(ids ...uint64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Int(4)
		w.Uint64(2)
		w.Uint64(uint64(len(ids) * (len(ids) + 1) / 2))
		w.Int(len(ids))
		for i, id := range ids {
			w.Uint64(id)
			w.Uint64(uint64(i) + 1)
		}
		return codec.EncodeFrame(codec.KindQDigest, w.Bytes())
	}
	var d Digest
	if err := d.UnmarshalBinary(frame(31, 16, 5, 17)); err != nil {
		t.Fatalf("unsorted frame rejected: %v", err)
	}
	if d.Size() != 4 || d.N() != 10 {
		t.Fatalf("decoded %d nodes of weight %d, want 4 of weight 10", d.Size(), d.N())
	}
	for i := 1; i < len(d.ids); i++ {
		if d.ids[i-1] >= d.ids[i] {
			t.Fatalf("body not sorted after decode: %v", d.ids)
		}
	}
	before, _ := d.Clone().MarshalBinary()
	if err := d.UnmarshalBinary(frame(31, 16, 31)); err == nil {
		t.Fatal("duplicate node accepted")
	}
	after, _ := d.Clone().MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("rejected frame modified the receiver")
	}
}
