// Golden wire corpus: one committed frame per registered family,
// regenerated only by `make wire-golden`. The corpus pins the wire
// bytes themselves — a codec change that survives the round-trip
// tests but shifts the encoding (field order, widths, varint vs
// fixed) still fails here. With each codec's round-trip tests and the
// registry's hostile-frame tests, this is what pins the wire format.
//
// The file lives in package codec_test (external) so it can enumerate
// the registry without an import cycle: families import codec, the
// catalog imports the families, and this test imports the catalog.
package codec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden from the current encoders instead of checking against it")

// goldenN is the deterministic update count behind every fixture.
// Changing it invalidates the corpus; regenerate deliberately.
const goldenN = 137

const goldenDir = "testdata/golden"

func goldenPath(name string) string {
	return filepath.Join(goldenDir, name+".bin")
}

// TestGoldenCorpus decodes every committed fixture with its family's
// registered decoder, checks the decode preserves the summarized
// weight, and re-encodes byte-identically. A registered family with
// no fixture fails, as does a fixture whose name matches no family.
func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		regenerateGolden(t)
		return
	}
	live := map[string]bool{}
	for _, ent := range registry.Entries() {
		live[ent.Name()] = true
		want, err := os.ReadFile(goldenPath(ent.Name()))
		if os.IsNotExist(err) {
			t.Errorf("%s: no golden fixture for registered family — run `make wire-golden`", ent.Name())
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := ent.Encode(ent.Example(goldenN))
		if err != nil {
			t.Fatalf("%s: encode example: %v", ent.Name(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder output differs from committed fixture (%d vs %d bytes) — "+
				"if the wire format changed deliberately, regenerate with `make wire-golden`",
				ent.Name(), len(got), len(want))
		}
		dec, err := ent.Decode(want)
		if err != nil {
			t.Errorf("%s: committed fixture no longer decodes: %v", ent.Name(), err)
			continue
		}
		if n, exp := ent.N(dec), ent.N(ent.Example(goldenN)); n != exp {
			t.Errorf("%s: decoded fixture summarizes weight %d, want %d", ent.Name(), n, exp)
		}
		again, err := ent.Encode(dec)
		if err != nil {
			t.Errorf("%s: re-encode: %v", ent.Name(), err)
		} else if !bytes.Equal(again, want) {
			t.Errorf("%s: decode→encode is not byte-identical to the fixture", ent.Name())
		}
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("reading %s (run `make wire-golden`?): %v", goldenDir, err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".bin")
		if !ok {
			continue
		}
		if !live[name] {
			t.Errorf("stale fixture %s: no family registers wire name %q — run `make wire-golden`", e.Name(), name)
		}
	}
}

func regenerateGolden(t *testing.T) {
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, ent := range registry.Entries() {
		live[ent.Name()] = true
		frame, err := ent.Encode(ent.Example(goldenN))
		if err != nil {
			t.Fatalf("%s: encode example: %v", ent.Name(), err)
		}
		path := goldenPath(ent.Name())
		old, readErr := os.ReadFile(path)
		if readErr == nil && bytes.Equal(old, frame) {
			continue
		}
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("golden: wrote %s (%d bytes)\n", path, len(frame))
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".bin")
		if !ok || live[name] {
			continue
		}
		if err := os.Remove(filepath.Join(goldenDir, e.Name())); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("golden: removed stale %s\n", e.Name())
	}
}

// decodeNoPanic decodes a (possibly corrupt) frame, converting a
// decoder panic into a test failure. Corrupt input may error or — for
// payload corruption that stays self-consistent — decode successfully,
// but it must never take down the process.
func decodeNoPanic(t *testing.T, ent *registry.Entry, frame []byte) (v any, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: decoder panicked on corrupt frame (%d bytes): %v", ent.Name(), len(frame), r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return ent.Decode(frame)
}

// TestCorruptFrameTruncation truncates every family's golden frame at
// every byte boundary (which covers every field boundary) and checks
// the decoder reports an error each time — the CRC footer plus the
// readers' bounds checks make any prefix invalid.
func TestCorruptFrameTruncation(t *testing.T) {
	for _, ent := range registry.Entries() {
		frame, err := ent.Encode(ent.Example(goldenN))
		if err != nil {
			t.Fatalf("%s: encode: %v", ent.Name(), err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := decodeNoPanic(t, ent, frame[:cut]); err == nil {
				t.Errorf("%s: decode accepted a frame truncated to %d/%d bytes", ent.Name(), cut, len(frame))
			}
		}
	}
}

// TestCorruptFrameFlips flips each byte of every family's frame two
// ways. A raw flip must always error: the CRC-32 footer covers the
// whole frame. A flip inside the payload with the checksum recomputed
// slips past the frame layer and exercises the per-family readers —
// including flipped length bytes, whose declared counts the guarded
// ArrayLen reads must cap at what the payload can actually hold
// instead of allocating for them. Those decodes must never panic, and
// anything accepted must re-encode to a canonical fixpoint.
func TestCorruptFrameFlips(t *testing.T) {
	for _, ent := range registry.Entries() {
		frame, err := ent.Encode(ent.Example(goldenN))
		if err != nil {
			t.Fatalf("%s: encode: %v", ent.Name(), err)
		}
		for i := range frame {
			raw := bytes.Clone(frame)
			raw[i] ^= 0xFF
			if _, err := decodeNoPanic(t, ent, raw); err == nil {
				t.Errorf("%s: decode accepted a frame with byte %d flipped (checksum not enforced?)", ent.Name(), i)
			}
		}
		payload, err := codec.DecodeFrame(ent.Kind(), frame)
		if err != nil {
			t.Fatalf("%s: reopening own frame: %v", ent.Name(), err)
		}
		for i := range payload {
			corrupt := bytes.Clone(payload)
			corrupt[i] ^= 0xFF
			reframed := codec.EncodeFrame(ent.Kind(), corrupt)
			v, err := decodeNoPanic(t, ent, reframed)
			if err != nil {
				continue // rejected by the reader's validation — fine
			}
			again, err := ent.Encode(v)
			if err != nil {
				t.Errorf("%s: re-encoding accepted corrupt payload (byte %d): %v", ent.Name(), i, err)
				continue
			}
			v2, err := ent.Decode(again)
			if err != nil {
				t.Errorf("%s: accepted corrupt payload (byte %d) did not re-decode: %v", ent.Name(), i, err)
				continue
			}
			final, err := ent.Encode(v2)
			if err != nil || !bytes.Equal(final, again) {
				t.Errorf("%s: corrupt payload (byte %d) accepted but not canonical", ent.Name(), i)
			}
		}
	}
}
