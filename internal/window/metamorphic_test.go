package window

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mergetree"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// TestPlaneMetamorphic is the planner's metamorphic gate, run for
// every registered family with zero per-family code: under a random
// advance/absorb/query schedule, a planner-cover query over [from, to]
// must summarize exactly the stream a flat epoch-order merge of the
// same range summarizes. For every family the total weight must match
// exactly and the planner's frame must be, byte for byte, the
// canonical nested fold of the range (canon) — the plane's own merge
// tree is a function of the range, so that much is owed
// unconditionally. What cannot be demanded unconditionally is byte
// equality between the ladder's tree and the flat one: some families
// are merge-order sensitive in their tie-breaking or cascade
// compactions that depend on how the fold is grouped (epsapprox's
// carry chain, randquant's block promotion). For that comparison only,
// the test classifies each family empirically: it folds every probed
// range three ways (sequential, pairing, fan-blocked with encode/decode
// roundtrips), and only when a family's three shapes agree on every
// probed range is it deemed fold-shape insensitive and its planner
// frames required to match the flat fold too. A single shape
// divergence anywhere demotes the whole family to canonical bytes +
// exact weight — per-range probing is not enough, because a
// shape-sensitive family's folds can coincide on one range and differ
// on the next.
func TestPlaneMetamorphic(t *testing.T) {
	for _, ent := range registry.Entries() {
		ent := ent
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(ent.Name())) * 7919))
			ladder := Ladder{Fan: 3, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}}
			p, err := NewPlane(ent, nil, ladder)
			if err != nil {
				t.Fatal(err)
			}

			// Random schedule: ~60 sealed epochs, each absorbing 0-2
			// deterministic example summaries. sizes[e] records epoch
			// e+1's example sizes so the flat side can rebuild them.
			const sealed = 60
			sizes := make([][]int, sealed)
			for e := 0; e < sealed; e++ {
				for k := rng.Intn(3); k > 0; k-- {
					n := 1 + rng.Intn(64)
					sizes[e] = append(sizes[e], n)
					if _, err := p.Absorb(ent.Example(n)); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.Advance(); err != nil {
					t.Fatal(err)
				}
			}

			seqFold := func(parts []any) any {
				acc := parts[0]
				for _, src := range parts[1:] {
					if err := ent.Merge(acc, src); err != nil {
						t.Fatal(err)
					}
				}
				return acc
			}
			// flatFold rebuilds the range's examples and folds them in
			// epoch order; returns nil when the range is empty.
			flatFold := func(from, to uint64) any {
				var parts []any
				for e := from; e <= to; e++ {
					for _, n := range sizes[e-1] {
						parts = append(parts, ent.Example(n))
					}
				}
				if len(parts) == 0 {
					return nil
				}
				return seqFold(parts)
			}
			// pairFold folds the same range as a pairing reduction.
			pairFold := func(from, to uint64) any {
				var parts []any
				for e := from; e <= to; e++ {
					for _, n := range sizes[e-1] {
						parts = append(parts, ent.Example(n))
					}
				}
				acc, err := mergetree.Parallel(parts, 1, ent.Merge)
				if err != nil {
					t.Fatal(err)
				}
				return acc
			}
			// blockFold folds each fan-aligned 3-epoch block
			// sequentially, roundtrips the block through the codec (as
			// sealing a segment does), then folds the blocks — the
			// grouped-with-roundtrips shape the roll-up plane produces.
			blockFold := func(from, to uint64) any {
				var blocks []any
				for b := from; b <= to; b += 3 {
					var parts []any
					for e := b; e <= to && e < b+3; e++ {
						for _, n := range sizes[e-1] {
							parts = append(parts, ent.Example(n))
						}
					}
					if len(parts) == 0 {
						continue
					}
					frame, err := ent.Encode(seqFold(parts))
					if err != nil {
						t.Fatal(err)
					}
					dec, err := ent.Decode(frame)
					if err != nil {
						t.Fatal(err)
					}
					blocks = append(blocks, dec)
				}
				return seqFold(blocks)
			}

			canonical := newCanon(t, ent, ladder, func(e uint64) []byte { return sealedFrame(t, ent, sizes[e-1]) })

			type probed struct {
				from, to      uint64
				planner, flat []byte
			}
			insensitive := true
			var probes []probed
			for q := 0; q < 20; q++ {
				from := uint64(1 + rng.Intn(sealed))
				to := from + uint64(rng.Intn(int(uint64(sealed)-from)+1))
				seq := flatFold(from, to)
				got, err := p.QueryEncoded(from, to)
				if seq == nil {
					if err == nil {
						t.Fatalf("[%d,%d]: empty range answered", from, to)
					}
					continue
				}
				if err != nil {
					t.Fatalf("[%d,%d]: %v", from, to, err)
				}
				if w := canonical.answer(from, to); !bytes.Equal(got, w) {
					t.Fatalf("[%d,%d]: planner frame is not the canonical fold (%d vs %d bytes)", from, to, len(got), len(w))
				}
				dec, err := ent.Decode(got)
				if err != nil {
					t.Fatalf("[%d,%d]: decoding planner frame: %v", from, to, err)
				}
				if gn, wn := ent.N(dec), ent.N(seq); gn != wn {
					t.Fatalf("[%d,%d]: planner N = %d, flat N = %d", from, to, gn, wn)
				}
				seqFrame, err := ent.Encode(seq)
				if err != nil {
					t.Fatal(err)
				}
				pairFrame, err := ent.Encode(pairFold(from, to))
				if err != nil {
					t.Fatal(err)
				}
				blockFrame, err := ent.Encode(blockFold(from, to))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seqFrame, pairFrame) || !bytes.Equal(seqFrame, blockFrame) {
					insensitive = false
				}
				probes = append(probes, probed{from, to, got, seqFrame})
			}
			if insensitive {
				t.Logf("fold-shape insensitive: byte gate armed over %d ranges", len(probes))
				for _, pr := range probes {
					if !bytes.Equal(pr.planner, pr.flat) {
						t.Fatalf("[%d,%d]: family is fold-shape insensitive yet the planner frame differs from the flat fold (%d vs %d bytes)",
							pr.from, pr.to, len(pr.planner), len(pr.flat))
					}
				}
			}

			// Live-edge query: absorb into the open epoch and compare
			// a through-live query against the flat fold plus live.
			liveSizes := []int{1 + rng.Intn(64), 1 + rng.Intn(64)}
			for _, n := range liveSizes {
				if _, err := p.Absorb(ent.Example(n)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := p.Query(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := ent.N(flatFold(1, sealed))
			for _, n := range liveSizes {
				want += ent.N(ent.Example(n))
			}
			if gn := ent.N(got); gn != want {
				t.Fatalf("live query N = %d, want %d", gn, want)
			}
		})
	}
}
