package registry_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// mustEncode is ent.Encode or a test failure.
func mustEncode(t testing.TB, ent *registry.Entry, v any) []byte {
	t.Helper()
	frame, err := ent.Encode(v)
	if err != nil {
		t.Fatalf("%s: encode: %v", ent.Name(), err)
	}
	return frame
}

// mustDecode is ent.Decode or a test failure.
func mustDecode(t testing.TB, ent *registry.Entry, frame []byte) any {
	t.Helper()
	v, err := ent.Decode(frame)
	if err != nil {
		t.Fatalf("%s: decode: %v", ent.Name(), err)
	}
	return v
}

// reframe wraps payload in the header of frame (magic, version, kind)
// with a matching length and checksum: a frame the codec layer accepts
// whatever the family's decoder then makes of its payload.
func reframe(frame, payload []byte) []byte {
	out := append([]byte(nil), frame[:6]...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// payloadOf returns the payload bytes of a well-formed frame.
func payloadOf(frame []byte) []byte {
	plen, n := binary.Uvarint(frame[6:])
	return frame[6+n : 6+n+int(plen)]
}

// hostileFrames derives, from one valid frame and without knowing its
// family, the frames a decode target must survive: cut short, checksum
// flipped, and — behind a valid header and checksum, so that the
// family's decoder is what meets them — the payload cut inside its
// counter run at several depths, every early payload byte (the
// header fields: k, seed, geometry, flags, counts) nudged three ways,
// emptyRuns and bigClaims. Some of the nudged frames are accepted:
// those are frames of other parameters, which is the point.
func hostileFrames(frame []byte) [][]byte {
	payload := payloadOf(frame)
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xff
	out := [][]byte{frame[:len(frame)-3], frame[:len(frame)/2], flipped}
	for _, keep := range []int{len(payload) - 1, len(payload) * 3 / 4, len(payload) / 2, len(payload) / 4} {
		if keep >= 0 && keep < len(payload) {
			out = append(out, reframe(frame, payload[:keep]))
		}
	}
	for i := 0; i < len(payload) && i < 24; i++ {
		for _, nudge := range []byte{1, 0xff, 0x55} {
			mut := append([]byte(nil), payload...)
			mut[i] += nudge
			out = append(out, reframe(frame, mut))
		}
	}
	out = append(out, emptyRuns(frame)...)
	return append(out, bigClaims(frame)...)
}

// emptyRuns cuts the payload at every early offset and continues it
// with a count of 4096 and as many zero bytes: wherever the cut lands
// on a table's length field, a table of elements that cost one byte
// each on the wire — empty levels, absent slots, zero counters — and
// may cost a decoder far more than that to hold. (A quantile frame's
// level table was bounded only by such bytes; it is now 64 levels.)
func emptyRuns(frame []byte) [][]byte {
	payload := payloadOf(frame)
	var out [][]byte
	for i := 0; i <= len(payload) && i < 24; i++ {
		mut := binary.AppendUvarint(append([]byte(nil), payload[:i]...), 4096)
		out = append(out, reframe(frame, append(mut, make([]byte, 4096)...)))
	}
	return out
}

// bigClaims replaces the uvarint that starts at each early payload
// offset in turn with 2^28: wherever that is a size field — a block
// size, a k, a width — a header that claims a structure of 2^28
// elements without sending one. (A rangecount frame's block size once
// sized the decoder's read run: 4 GiB for 51 bytes.)
func bigClaims(frame []byte) [][]byte {
	payload := payloadOf(frame)
	var out [][]byte
	for i := 0; i < len(payload) && i < 24; i++ {
		_, n := binary.Uvarint(payload[i:])
		if n <= 0 {
			continue
		}
		mut := binary.AppendUvarint(append([]byte(nil), payload[:i]...), 1<<28)
		out = append(out, reframe(frame, append(mut, payload[i+n:]...)))
	}
	return out
}

// TestHostileFramesAllocateLittle: a frame buys retained storage with
// bytes it sends, not with numbers in its header. Every hostile frame
// derived from each family's empty and small examples — a few hundred
// bytes to 8 KiB each — is decoded into a fresh receiver and into
// pooled scratch, accepted or not, within 1 MiB of allocation.
func TestHostileFramesAllocateLittle(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			for _, n := range []int{0, 16} {
				for i, h := range hostileFrames(mustEncode(t, ent, ent.Example(n))) {
					sc := ent.GetScratch()
					for how, decode := range map[string]func(){
						"fresh receiver": func() { _, _ = ent.Decode(h) },
						"pooled scratch": func() { _ = ent.DecodeInto(sc, h) },
					} {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						decode()
						runtime.ReadMemStats(&after)
						if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
							t.Fatalf("Example(%d), hostile frame %d (%d bytes), %s: decoding allocated %d bytes", n, i, len(h), how, got)
						}
					}
					ent.PutScratch(sc)
				}
			}
		})
	}
}

// TestDecodeIntoDirtyScratch is the differential test of the decode
// contract every family must meet now that pooled scratch keeps its
// storage: a receiver in any state — having decoded other frames, frames
// of other parameters, frames that failed at every depth, having been a
// merge source and a merge destination — decodes the next frame to
// exactly what a fresh receiver does: the same bytes, and the same bytes
// again after one more merge (which is what a stale hash row, RNG or
// capacity would change).
func TestDecodeIntoDirtyScratch(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			target := mustEncode(t, ent, ent.Example(300))
			then := mustEncode(t, ent, ent.Example(200))

			fresh := mustDecode(t, ent, target)
			wantDecoded := mustEncode(t, ent, fresh)
			if err := ent.Merge(fresh, mustDecode(t, ent, then)); err != nil {
				t.Fatal(err)
			}
			wantMerged := mustEncode(t, ent, fresh)

			check := func(how string, sc any) {
				t.Helper()
				if err := ent.DecodeInto(sc, target); err != nil {
					t.Fatalf("after %s: decode: %v", how, err)
				}
				if got := mustEncode(t, ent, sc); !bytes.Equal(got, wantDecoded) {
					t.Fatalf("after %s: decoded summary differs from a fresh decode", how)
				}
				if err := ent.Merge(sc, mustDecode(t, ent, then)); err != nil {
					t.Fatalf("after %s: merge: %v", how, err)
				}
				if got := mustEncode(t, ent, sc); !bytes.Equal(got, wantMerged) {
					t.Fatalf("after %s: summary differs from the fresh path after one more merge", how)
				}
			}

			// One scratch accumulates every kind of history, and is held
			// to the fresh path after each step.
			sc := ent.New()
			check("nothing (the zero value)", sc)
			for _, n := range []int{0, 16, 2000, 64} {
				if err := ent.DecodeInto(sc, mustEncode(t, ent, ent.Example(n))); err != nil {
					t.Fatal(err)
				}
				check("decoding other examples", sc)
			}
			for _, src := range [][]byte{target, mustEncode(t, ent, ent.Example(0)), mustEncode(t, ent, ent.Example(2000))} {
				for i, h := range hostileFrames(src) {
					_ = ent.DecodeInto(sc, h) // most fail, some are frames of other parameters
					if i%7 == 0 {
						check("a hostile frame", sc)
					}
				}
				check("hostile frames", sc)
			}
			if err := ent.Merge(ent.Example(50), sc); err != nil {
				t.Fatal(err)
			}
			check("being merged from", sc)
			if err := ent.Merge(sc, ent.Example(80)); err != nil {
				t.Fatal(err)
			}
			check("being merged into", sc)

			// A failed decode must leave a summary that still works — the
			// server recycles it, the window plane may fold into it.
			for _, h := range hostileFrames(target) {
				if ent.DecodeInto(sc, h) != nil {
					if _, err := ent.Encode(sc); err != nil {
						t.Fatalf("summary unusable after a failed decode: %v", err)
					}
				}
			}
			check("failed decodes, encoded in between", sc)
		})
	}
}

// TestScratchNeverAliasesAccumulator pins what the scratch pool depends
// on (see registry.Entry): every merge deep-copies its source, so the
// scratch a frame was decoded into can be decoded into again — in
// place, over the same storage — without the accumulator noticing.
func TestScratchNeverAliasesAccumulator(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			a := mustEncode(t, ent, ent.Example(400))
			b := mustEncode(t, ent, ent.Example(90))
			for _, dstN := range []int{0, 700} { // an empty accumulator adopts the most
				dst := ent.Example(dstN)
				sc := ent.GetScratch()
				if err := ent.DecodeInto(sc, a); err != nil {
					t.Fatal(err)
				}
				if err := ent.Merge(dst, sc); err != nil {
					t.Fatal(err)
				}
				want := mustEncode(t, ent, dst)
				if err := ent.DecodeInto(sc, b); err != nil {
					t.Fatal(err)
				}
				if got := mustEncode(t, ent, dst); !bytes.Equal(got, want) {
					t.Fatalf("accumulator (from Example(%d)) changed when its merged-in scratch was decoded into again", dstN)
				}
				ent.PutScratch(sc)
			}
		})
	}
}

// TestDecodeMergeAllocs pins the aggregator's unit step — pooled
// scratch, DecodeInto, Merge, back to the pool — at no more than one
// allocation for every family, with the pool and the accumulator warm
// (BenchmarkRegistryDecodeMerge reports the same step's bytes and time).
func TestDecodeMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: pooled scratch is sometimes made anew")
	}
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			var frames [][]byte
			for _, n := range []int{6000, 8000, 10000, 12000} {
				frames = append(frames, mustEncode(t, ent, ent.Example(n)))
			}
			dst := ent.Example(16000)
			i := 0
			step := func() {
				sc := ent.GetScratch()
				if err := ent.DecodeInto(sc, frames[i%len(frames)]); err != nil {
					t.Fatal(err)
				}
				if err := ent.Merge(dst, sc); err != nil {
					t.Fatal(err)
				}
				ent.PutScratch(sc)
				i++
			}
			for range 4 * len(frames) {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs > 1 {
				t.Errorf("decode+merge: %v allocs per frame, want <= 1", allocs)
			}
		})
	}
}
