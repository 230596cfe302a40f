package qdigest

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/gen"
)

// sizeLimit is what a digest of compression factor k may hold between
// compressions: a compressed digest has at most 3k nodes, and the next
// compression is due before as many insertions again, plus the slack.
func sizeLimit(k uint64) int { return int(2*3*k) + compressSlack + 1 }

// A stream of distinct values grows the node set with every insertion;
// the compress trigger must fire all the same. (With the trigger
// measured against the current size it never did: 10^6 distinct values
// made 10^6 nodes against a bound of 300.)
func TestDistinctStreamStaysBounded(t *testing.T) {
	const k, n = 100, 200000
	for _, logU := range []uint8{32, 62} {
		stride := uint64(1)<<logU/n - 1 // distinct, spread over the universe
		t.Run(fmt.Sprintf("update/logU=%d", logU), func(t *testing.T) {
			d := New(logU, k)
			for i := uint64(0); i < n; i++ {
				d.Update(i*stride, 1)
				if d.Size() > sizeLimit(k) {
					t.Fatalf("after %d distinct updates the digest holds %d nodes, limit %d", i+1, d.Size(), sizeLimit(k))
				}
			}
		})
		t.Run(fmt.Sprintf("batch/logU=%d", logU), func(t *testing.T) {
			d := New(logU, k)
			vs := make([]uint64, 0, 3*batchRun)
			next := uint64(0)
			for _, c := range []int{1, 7, 300, batchRun - 1, batchRun, batchRun + 5, 3 * batchRun, 2, 650} {
				vs = vs[:0]
				for ; len(vs) < c; next++ {
					vs = append(vs, next*stride)
				}
				d.UpdateBatch(vs)
				if d.Size() > sizeLimit(k) {
					t.Fatalf("after a batch of %d distinct values (n=%d) the digest holds %d nodes, limit %d", c, d.N(), d.Size(), sizeLimit(k))
				}
			}
			if d.N() != next {
				t.Fatalf("N = %d after %d values", d.N(), next)
			}
		})
	}
}

// Batches longer than one sorted run, with pending leaves from single
// updates in between and runs of heavy weighted updates between them, against the oracle's plain statement of the same
// schedule: identical bytes after every call.
func TestBatchRunsMatchOracle(t *testing.T) {
	for _, sh := range []struct {
		logU uint8
		k    uint64
	}{{16, 40}, {32, 64}, {62, 31}} {
		rng := gen.NewRNG(uint64(sh.logU))
		dp := &diffPair{got: New(sh.logU, sh.k), spare: new(Digest), ref: newRef(sh.logU, sh.k)}
		value := func() uint64 {
			// A pool of 4096 spread-out values, and now and then one
			// beyond the universe.
			v := rng.Uint64n(4096) << (sh.logU - 12)
			if rng.Uint64n(64) == 0 {
				v = ^uint64(0) >> rng.Uint64n(3)
			}
			return v
		}
		for step, c := range []int{batchRun + 1, 5, 2*batchRun + 17, batchRun - 1, 3 * batchRun, 100} {
			for i := 0; i < c%7; i++ {
				v := value()
				dp.got.Update(v, 3)
				dp.ref.Update(v, 3)
			}
			if step%2 == 0 {
				vs := make([]uint64, c)
				for i := range vs {
					vs[i] = value()
				}
				dp.got.UpdateBatch(vs)
				dp.ref.UpdateBatch(vs)
			} else {
				for range c {
					v, w := value(), rng.Uint64n(1000)+1
					dp.got.Update(v, w)
					dp.ref.Update(v, w)
				}
			}
			dp.check(t, step, fmt.Sprintf("batch of %d at logU=%d", c, sh.logU))
		}
	}
}

// Compress must run a second pass exactly when the first folded a node
// whose children had survived on its count. Here, with t = 10: leaves 4
// and 5 (3 + 3) stay under node 2 (5) because 11 > 10; one level up,
// node 2 folds into the root (5 <= 10) — and leaves 4 and 5, now 6 <= 10
// with no parent, must fold into a new node 2 in a second pass.
func TestCompressRerunsAfterFoldedParent(t *testing.T) {
	d := New(2, 11)
	d.ids = []uint64{2, 4, 5, 7}
	d.counts = []uint64{5, 3, 3, 100}
	d.n = 111
	if !sweep(d) {
		t.Fatal("first pass folded a propping parent but asks for no second pass")
	}
	if want := []uint64{1, 4, 5, 7}; !slices.Equal(d.ids, want) {
		t.Fatalf("after one pass the nodes are %v, want %v", d.ids, want)
	}
	d.Compress()
	if err := d.checkInvariants(); err != nil {
		t.Fatalf("Compress stopped short of the fixpoint: %v", err)
	}
	if wantI, wantC := []uint64{1, 2, 7}, []uint64{5, 6, 100}; !slices.Equal(d.ids, wantI) || !slices.Equal(d.counts, wantC) {
		t.Fatalf("compressed to %v / %v, want %v / %v", d.ids, d.counts, wantI, wantC)
	}
	// The propping node as the second of its pair: node 3 (1, over leaf
	// 7) and node 2 fold into the root together (6 <= 10), and the mark
	// must come through from the sibling's entry.
	d = New(2, 11)
	d.ids = []uint64{2, 3, 4, 5, 7}
	d.counts = []uint64{5, 1, 3, 3, 100}
	d.n = 112
	if !sweep(d) {
		t.Fatal("a propping sibling was folded but the pass asks for no second pass")
	}
	d.Compress()
	if wantI, wantC := []uint64{1, 2, 7}, []uint64{6, 6, 100}; !slices.Equal(d.ids, wantI) || !slices.Equal(d.counts, wantC) {
		t.Fatalf("compressed to %v / %v, want %v / %v", d.ids, d.counts, wantI, wantC)
	}
	// The converse: the same shape with a parent that stays needs one
	// pass, and says so.
	d = New(2, 11)
	d.ids = []uint64{2, 3, 4, 5, 7}
	d.counts = []uint64{5, 6, 3, 3, 94}
	d.n = 111
	if sweep(d) {
		t.Fatal("nothing propped was folded, yet the pass asks for another")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatalf("one pass was not enough: %v", err)
	}
	// Nor does a folded parent whose child stands on its own count:
	// node 3 (1) folds into the root, leaf 7 (100) never needed it.
	d = New(2, 10)
	d.ids = []uint64{3, 7}
	d.counts = []uint64{1, 100}
	d.n = 101
	if sweep(d) {
		t.Fatal("the folded parent propped nothing, yet the pass asks for another")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatalf("one pass was not enough: %v", err)
	}
	// A cascade, t = 10: leaves 16 and 17 (3 + 3) stay under node 8 (5);
	// node 8 then folds alone into a new 4, 4 into a new 2 and 2 into
	// the root (2 + 5). The second sweep re-creates 8 from the leaves
	// and follows the chain up in the same pass: the pair of 8 (6) has
	// no parent left, folds into a new 4, and that into a new 2, which
	// stands on the root (6 + 7 > 10). That fold propped nothing, so
	// there is no third sweep.
	d = New(4, 11)
	d.ids = []uint64{1, 8, 16, 17, 31}
	d.counts = []uint64{2, 5, 3, 3, 98}
	d.n = 111
	if !sweep(d) {
		t.Fatal("the first sweep folded the propping node 8 but asks for no second sweep")
	}
	if wantI, wantC := []uint64{1, 16, 17, 31}, []uint64{7, 3, 3, 98}; !slices.Equal(d.ids, wantI) || !slices.Equal(d.counts, wantC) {
		t.Fatalf("after the first sweep %v / %v, want %v / %v", d.ids, d.counts, wantI, wantC)
	}
	if sweep(d) {
		t.Fatal("the second sweep folded nothing propped, yet asks for a third")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatalf("two sweeps were not enough: %v", err)
	}
	got := map[uint64]uint64{}
	for i, id := range d.ids {
		got[id] = d.counts[i]
	}
	ref := newRef(4, 11)
	ref.counts = map[uint64]uint64{1: 2, 8: 5, 16: 3, 17: 3, 31: 98}
	ref.n = 111
	ref.Compress()
	if !maps.Equal(got, ref.counts) {
		t.Fatalf("two sweeps compress to %v, the oracle to %v", got, ref.counts)
	}
}

// A digest nothing has touched since Compress is not compressed again:
// encoding and querying run no compress pass, and any mutation
// clears the mark. A decode sets it: the decoder verifies that the
// body is compressed.
func TestCleanDigestSkipsCompress(t *testing.T) {
	d := New(16, 50)
	rng := gen.NewRNG(5)
	vs := make([]uint64, 5000)
	for i := range vs {
		vs[i] = rng.Uint64n(1 << 16)
	}
	d.UpdateBatch(vs)
	d.Compress()
	if !d.clean {
		t.Fatal("Compress left the digest unmarked")
	}
	d.base = -1 // a compress pass would set this again
	if _, err := d.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	d.Rank(100)
	d.Quantile(0.5)
	if d.base != -1 {
		t.Fatal("encoding or querying a clean digest ran a compress pass")
	}
	d.base = len(d.ids)
	frame, _ := d.MarshalBinary()
	for name, touch := range map[string]func(d *Digest){
		"Update":      func(d *Digest) { d.Update(7, 1) },
		"UpdateBatch": func(d *Digest) { d.UpdateBatch([]uint64{7}) },
		"Merge":       func(d *Digest) { _ = d.Merge(d.Clone()) },
		"decode":      func(d *Digest) { _ = d.UnmarshalBinary(frame) },
	} {
		c := d.Clone()
		if !c.clean {
			t.Fatal("Clone dropped the mark")
		}
		touch(c)
		switch name {
		case "Merge": // ends in a Compress of its own
		case "decode":
			if !c.clean {
				t.Fatal("a verified decode left the digest unmarked")
			}
		default:
			if c.clean {
				t.Fatalf("%s left the digest marked clean", name)
			}
		}
		c.Compress()
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("after %s: %v", name, err)
		}
	}
}

// sweep runs one whole-body pass on d and reports whether it folded a
// node its children needed, so that another pass is due.
func sweep(d *Digest) bool {
	return d.compressPass(new(runs), d.n/d.k)
}
