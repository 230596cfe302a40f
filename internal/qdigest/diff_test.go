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
			for range p.byte() % 48 {
				v, w := p.value(logU), uint64(p.byte())<<(p.byte()%20)+1
				dp.got.Update(v, w)
				dp.ref.Update(v, w)
			}
		case 3:
			op = "merge"
			sameMergeError(t, step, dp.got.Merge(other.got), dp.ref.Merge(other.ref))
			other.check(t, step, "merge source")
		case 4:
			op = "self-merge"
			sameMergeError(t, step, dp.got.Merge(dp.got), dp.ref.Merge(dp.ref))
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

// sameMergeError requires the digest and the oracle to accept or refuse
// a merge alike: both refuse one whose weights sum past 2^64, and the
// step's check then holds them to their unchanged states.
func sameMergeError(t *testing.T, step int, got, ref error) {
	t.Helper()
	if (got == nil) != (ref == nil) {
		t.Fatalf("step %d: merge error %v, oracle's %v", step, got, ref)
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

// A digest has one frame, its nodes in ascending id order: a frame
// listing them in any other order is refused, as is one that repeats a
// node, and a refused frame leaves the receiver untouched.
func TestUnmarshalUnsortedFrame(t *testing.T) {
	// frame encodes the given nodes of a logU=4, k=100 digest in the
	// order given, node i carrying count i+1: the threshold ⌊n/k⌋ is 0,
	// so any body is compressed.
	frame := func(ids ...uint64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Int(4)
		w.Uint64(100)
		w.Uint64(uint64(len(ids) * (len(ids) + 1) / 2))
		w.Int(len(ids))
		for i, id := range ids {
			w.Uint64(id)
			w.Uint64(uint64(i) + 1)
		}
		return codec.EncodeFrame(codec.KindQDigest, w.Bytes())
	}
	var d Digest
	if err := d.UnmarshalBinary(frame(5, 16, 17, 31)); err != nil {
		t.Fatalf("sorted frame rejected: %v", err)
	}
	before, _ := d.Clone().MarshalBinary()
	for name, bad := range map[string][]byte{
		"unsorted":  frame(31, 16, 5, 17),
		"one swap":  frame(5, 17, 16, 31),
		"duplicate": frame(16, 31, 31),
	} {
		if err := d.UnmarshalBinary(bad); err == nil {
			t.Fatalf("%s frame accepted", name)
		}
		after, _ := d.Clone().MarshalBinary()
		if !bytes.Equal(before, after) {
			t.Fatalf("rejected %s frame modified the receiver", name)
		}
	}
}

// A digest's body is compressed for its k when it is encoded, so the
// decoder refuses one that is not: here two lone leaves whose groups
// hold 1 each, within the threshold ⌊n/k⌋ = 1 at k = 2 and above the
// threshold 0 at k = 4. A refused frame leaves the receiver untouched.
func TestUnmarshalRefusesUncompressedBody(t *testing.T) {
	frame := func(k uint64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Int(4)
		w.Uint64(k)
		w.Uint64(2)
		w.Int(2)
		for _, id := range []uint64{16, 31} {
			w.Uint64(id)
			w.Uint64(1)
		}
		return codec.EncodeFrame(codec.KindQDigest, w.Bytes())
	}
	var d Digest
	if err := d.UnmarshalBinary(frame(4)); err != nil {
		t.Fatalf("compressed body rejected: %v", err)
	}
	before, _ := d.Clone().MarshalBinary()
	if err := d.UnmarshalBinary(frame(2)); err == nil {
		t.Fatal("uncompressed body accepted")
	}
	if after, _ := d.Clone().MarshalBinary(); !bytes.Equal(before, after) {
		t.Fatal("rejected frame modified the receiver")
	}
}
