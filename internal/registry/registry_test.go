package registry_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/mergetree"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// TestCatalogComplete is the completeness table test: every wire tag
// the codec layer defines must carry a registration, resolvable by
// tag, by name, and from a frame, with the codec's name table agreeing
// with the catalog.
func TestCatalogComplete(t *testing.T) {
	if got, want := len(registry.Entries()), codec.KindCount-1; got != want {
		t.Fatalf("registry holds %d families, want %d (one per codec kind)", got, want)
	}
	for k := codec.KindMisraGries; int(k) < codec.KindCount; k++ {
		ent, ok := registry.ByKind(k)
		if !ok {
			t.Fatalf("kind %d has no registration", uint8(k))
		}
		if ent.Kind() != k {
			t.Fatalf("entry for kind %d reports kind %d", uint8(k), uint8(ent.Kind()))
		}
		byName, ok := registry.ByName(ent.Name())
		if !ok || byName != ent {
			t.Fatalf("ByName(%q) does not resolve back to the same entry", ent.Name())
		}
		// The codec's name table is a projection of the registry, so the
		// named String() path must agree with the catalog.
		if k.String() != ent.Name() {
			t.Fatalf("codec name %q != registry name %q", k.String(), ent.Name())
		}

		frame, err := ent.Encode(ent.Example(32))
		if err != nil {
			t.Fatalf("%s: encode: %v", ent.Name(), err)
		}
		fromFrame, err := registry.FromFrame(frame)
		if err != nil || fromFrame != ent {
			t.Fatalf("FromFrame(%s frame) = %v, %v", ent.Name(), fromFrame, err)
		}
	}
	if names := registry.Names(); len(names) != codec.KindCount-1 {
		t.Fatalf("Names() = %v", names)
	}
}

// TestRoundTripByteIdentical: for every family, encode → decode-into →
// re-encode must reproduce the frame byte for byte. This pins both the
// codec's canonical form and the purity of MarshalBinary (encoding may
// not perturb summary state).
func TestRoundTripByteIdentical(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			ex := ent.Example(300)
			frame, err := ent.Encode(ex)
			if err != nil {
				t.Fatal(err)
			}
			dst := ent.New()
			if err := ent.DecodeInto(dst, frame); err != nil {
				t.Fatal(err)
			}
			again, err := ent.Encode(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, again) {
				t.Fatalf("re-encode differs (%d vs %d bytes)", len(frame), len(again))
			}
			// Encoding must also be pure: a second encode of the
			// original is identical to the first.
			frame2, err := ent.Encode(ex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, frame2) {
				t.Fatal("MarshalBinary mutated the summary: second encode differs")
			}
		})
	}
}

// TestMergeOfDecodedEqualsOriginals: merging decoded copies must be
// indistinguishable from merging the originals — the wire hop loses
// nothing. The fold of decoded clones is compared byte-for-byte
// against the fold of the in-memory summaries, and the decoded parts
// additionally survive mergetree.Metamorphic (every topology yields
// the same total weight).
func TestMergeOfDecodedEqualsOriginals(t *testing.T) {
	sizes := []int{100, 200, 300, 50}
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			originals := make([]any, len(sizes))
			decoded := make([]any, len(sizes))
			for i, n := range sizes {
				originals[i] = ent.Example(n)
				frame, err := ent.Encode(originals[i])
				if err != nil {
					t.Fatal(err)
				}
				if decoded[i], err = ent.Decode(frame); err != nil {
					t.Fatal(err)
				}
			}
			fold := func(parts []any) []byte {
				t.Helper()
				acc := parts[0]
				for _, p := range parts[1:] {
					if err := ent.Merge(acc, p); err != nil {
						t.Fatal(err)
					}
				}
				frame, err := ent.Encode(acc)
				if err != nil {
					t.Fatal(err)
				}
				return frame
			}
			wantFrame := fold(originals)
			gotFrame := fold(decoded)
			if !bytes.Equal(wantFrame, gotFrame) {
				t.Fatalf("fold of decoded copies differs from fold of originals (%d vs %d bytes)",
					len(gotFrame), len(wantFrame))
			}

			// Re-materialize fresh parts (the folds above consumed the
			// accumulators) and check topology independence of N.
			parts := make([]any, len(sizes))
			var wantN uint64
			for i, n := range sizes {
				parts[i] = ent.Example(n)
				wantN += ent.N(parts[i])
			}
			clone := func(v any) any {
				frame, err := ent.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				c, err := ent.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			err := mergetree.Metamorphic(parts, clone,
				mergetree.MergeFunc[any](ent.Merge),
				func(topology string, merged any) error {
					if got := ent.N(merged); got != wantN {
						return fmt.Errorf("%s: N = %d, want %d", topology, got, wantN)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMergeVariants checks the variant plumbing: the two families
// declaring a low-error merge (mg and ss) expose both algorithms and
// default to low-error; every other family reports exactly the PODS'12
// merge.
func TestMergeVariants(t *testing.T) {
	for _, ent := range registry.Entries() {
		variants := ent.Variants()
		if ent.Name() == "mg" || ent.Name() == "ss" {
			if len(variants) != 2 || variants[0] != "low-error" || variants[1] != "pods12" {
				t.Fatalf("%s: Variants() = %v", ent.Name(), variants)
			}
		} else if len(variants) != 1 || variants[0] != "pods12" {
			t.Fatalf("%s: Variants() = %v", ent.Name(), variants)
		}

		// Both selectable variants must run and preserve total weight.
		for _, v := range []registry.Variant{registry.MergeDefault, registry.MergePODS, registry.MergeLowError} {
			dst, src := ent.Example(60), ent.Example(40)
			want := ent.N(dst) + ent.N(src)
			if err := ent.MergeVariant(v, dst, src); err != nil {
				t.Fatalf("%s: MergeVariant(%d): %v", ent.Name(), v, err)
			}
			if got := ent.N(dst); got != want {
				t.Fatalf("%s: variant %d merge N = %d, want %d", ent.Name(), v, got, want)
			}
		}
	}
}

// TestMergeRejectsForeignOperands: a cross-family mix-up must be an
// error before any mutation, never a panic inside a family's merge.
func TestMergeRejectsForeignOperands(t *testing.T) {
	mg, _ := registry.ByName("mg")
	ss, _ := registry.ByName("ss")
	if mg == nil || ss == nil {
		t.Fatal("mg/ss not registered")
	}
	if err := mg.Merge(mg.Example(10), ss.Example(10)); err == nil {
		t.Fatal("merging ss into mg via the mg entry succeeded")
	}
	if err := mg.Merge(nil, mg.Example(10)); err == nil {
		t.Fatal("merging into nil dst succeeded")
	}
}

// TestScratchPool: decode targets from the pool are fully overwritten
// by DecodeInto, so recycled scratch never leaks prior contents.
func TestScratchPool(t *testing.T) {
	ent, _ := registry.ByName("mg")
	big, err := ent.Encode(ent.Example(500))
	if err != nil {
		t.Fatal(err)
	}
	small, err := ent.Encode(ent.Example(10))
	if err != nil {
		t.Fatal(err)
	}
	s := ent.GetScratch()
	if err := ent.DecodeInto(s, big); err != nil {
		t.Fatal(err)
	}
	ent.PutScratch(s)
	s2 := ent.GetScratch()
	if err := ent.DecodeInto(s2, small); err != nil {
		t.Fatal(err)
	}
	enc, err := ent.Encode(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, small) {
		t.Fatal("recycled scratch leaked prior contents into the decode")
	}
}
