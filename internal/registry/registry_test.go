package registry_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/countmin"
	"repro/internal/countsketch"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/qdigest"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
	"repro/internal/spacesaving"
	"repro/internal/topk"
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

// TestRegisterRejectsReuse: registering under a taken name, or a
// fresh name under a taken tag, panics naming what was reused and
// leaves the catalog as it was. The registry is the only place either
// is checked. Every tag is taken here, so the name case relies on the
// name being checked first.
func TestRegisterRejectsReuse(t *testing.T) {
	spec := registry.Spec[mg.Summary]{
		Example: func(int) *mg.Summary { return mg.New(8) },
		Merge:   (*mg.Summary).MergeLowError,
		N:       (*mg.Summary).N,
	}
	before := registry.Entries()
	for _, c := range []struct {
		kind codec.Kind
		name string
		want string // what the panic must name
	}{
		{codec.KindTopK, "mg", `name "mg"`},
		{codec.KindMisraGries, "mg-copy", `kind mg`},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, c.want) {
					t.Errorf("Register(%d, %q) panicked with %q, want it to name %s", uint8(c.kind), c.name, r, c.want)
				}
			}()
			registry.Register(c.kind, c.name, spec)
		}()
	}
	if after := registry.Entries(); !slices.Equal(after, before) {
		t.Fatalf("a rejected registration changed the catalog: %v", registry.Names())
	}
	if _, ok := registry.ByName("mg-copy"); ok {
		t.Fatal(`"mg-copy" resolves after a rejected registration`)
	}
	if e, _ := registry.ByName("mg"); e.Kind() != codec.KindMisraGries || codec.KindTopK.String() != "topk" {
		t.Fatalf(`"mg" resolves to kind %v, topk's tag names %q`, e.Kind(), codec.KindTopK.String())
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

// TestMergeVariants: mg and ss each have two merges, and the catalog
// holds the one the daemon serves, the low-total-error closed form; the
// PODS'12 merge stays a family method. The catalog's Merge must give
// MergeLowError's bytes — which differ from the PODS'12 merge's on
// these operands — and every family's merge must preserve total weight.
func TestMergeVariants(t *testing.T) {
	for _, ent := range registry.Entries() {
		dst, src := ent.Example(60), ent.Example(40)
		want := ent.N(dst) + ent.N(src)
		if err := ent.Merge(dst, src); err != nil {
			t.Fatalf("%s: Merge: %v", ent.Name(), err)
		}
		if got := ent.N(dst); got != want {
			t.Fatalf("%s: merged N = %d, want %d", ent.Name(), got, want)
		}
	}
	type merge func(dst, src any) error
	for name, m := range map[string]struct{ low, pods merge }{
		"mg": {
			func(d, s any) error { return d.(*mg.Summary).MergeLowError(s.(*mg.Summary)) },
			func(d, s any) error { return d.(*mg.Summary).Merge(s.(*mg.Summary)) },
		},
		"ss": {
			func(d, s any) error { return d.(*spacesaving.Summary).MergeLowError(s.(*spacesaving.Summary)) },
			func(d, s any) error { return d.(*spacesaving.Summary).Merge(s.(*spacesaving.Summary)) },
		},
	} {
		ent, _ := registry.ByName(name)
		fold := func(f merge) []byte {
			dst, src := ent.Example(3000), ent.Example(2000)
			if err := f(dst, src); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out, err := ent.Encode(dst)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		catalog, low, pods := fold(ent.Merge), fold(m.low), fold(m.pods)
		if !bytes.Equal(catalog, low) {
			t.Errorf("%s: the catalog's merge is not MergeLowError", name)
		}
		if bytes.Equal(low, pods) {
			t.Errorf("%s: the fixture cannot tell MergeLowError from the PODS'12 merge", name)
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

// TestMergeRefusesWeightOverflow: every family that takes weighted
// updates can hold a weight of 2^63, and two such summaries would sum
// to N = 0 — a summary whose frame then fails its own decoder. The
// registry refuses the merge before touching dst, which keeps its N
// and its bytes.
func TestMergeRefusesWeightOverflow(t *testing.T) {
	const heavy = 1 << 63
	for name, build := range map[string]func() encoder{
		"mg":          func() encoder { s := mg.New(8); s.Update(1, heavy); return s },
		"ss":          func() encoder { s := spacesaving.New(8); s.Update(1, heavy); return s },
		"countmin":    func() encoder { s := countmin.New(16, 2, 1); s.Update(1, heavy); return s },
		"countsketch": func() encoder { s := countsketch.New(16, 2, 1); s.Update(1, heavy); return s },
		"topk":        func() encoder { s := topk.New(4, 16, 2, 1); s.Update(1, heavy); return s },
		"qdigest":     func() encoder { s := qdigest.New(8, 4); s.Update(3, heavy); return s },
	} {
		ent, _ := registry.ByName(name)
		frame, err := build().MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst, err := ent.Decode(frame)
		if err != nil {
			t.Fatalf("%s: a weight-2^63 frame does not decode: %v", name, err)
		}
		src, _ := ent.Decode(frame)
		if err := ent.Merge(dst, src); err == nil {
			t.Fatalf("%s: merging two weight-2^63 summaries succeeded", name)
		}
		after, err := ent.Encode(dst)
		if err != nil || !bytes.Equal(after, frame) || ent.N(dst) != heavy {
			t.Fatalf("%s: the refused merge changed dst (N=%d, %v)", name, ent.N(dst), err)
		}
		if _, err := ent.Decode(after); err != nil {
			t.Fatalf("%s: dst no longer decodes: %v", name, err)
		}
	}
}

type encoder interface{ MarshalBinary() ([]byte, error) }

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
