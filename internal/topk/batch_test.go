package topk

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/gen"
)

// TestBatchReranks holds every UpdateBatch / UpdateBatchWeighted call
// to its contract: the sketch is the Update loop's byte for byte, and
// the directory is the top k of (directory before the call ∪ the
// call's items) by estimate against the final sketch — as a multiset of
// estimates, since ties at the boundary may go either way — each entry
// carrying its final estimate.
func TestBatchReranks(t *testing.T) {
	stream := gen.NewZipf(3000, 1.1, 4).Stream(30000)
	for _, weighted := range []bool{false, true} {
		tr, ref := New(24, 256, 4, 9), countmin.New(256, 4, 9)
		for off, size := 0, 1; off < len(stream); off, size = off+size, size*3+1 {
			xs := stream[off:min(len(stream), off+size)]
			cands := slices.Clone(tr.items)
			if weighted {
				ws := make([]core.Counter, len(xs))
				for i, x := range xs {
					ws[i] = core.Counter{Item: x, Count: uint64(i%5) + 1}
					ref.Update(x, ws[i].Count)
				}
				tr.UpdateBatchWeighted(ws)
			} else {
				for _, x := range xs {
					ref.Update(x, 1)
				}
				tr.UpdateBatch(xs)
			}
			cands = append(cands, xs...)
			a, _ := tr.sketch.MarshalBinary()
			b, _ := ref.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("weighted=%v, after %d items: sketch differs from the Update loop's", weighted, off+len(xs))
			}
			var all []uint64
			seen := make(map[core.Item]bool)
			for _, x := range cands {
				if !seen[x] {
					seen[x] = true
					all = append(all, ref.Estimate(x).Value)
				}
			}
			slices.Sort(all)
			slices.Reverse(all)
			want := all[:min(len(all), tr.k)]
			var got []uint64
			for _, c := range tr.Top() {
				if !seen[c.Item] || c.Count != ref.Estimate(c.Item).Value {
					t.Fatalf("weighted=%v: directory entry %v is not a candidate at its final estimate", weighted, c)
				}
				got = append(got, c.Count)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("weighted=%v, after %d items: directory %v, want the top %v", weighted, off+len(xs), got, want)
			}
			checkHeap(t, tr)
		}
	}
}

// checkHeap fails unless the directory is a min-heap on estimates with
// distinct items.
func checkHeap(t *testing.T, tr *Tracker) {
	t.Helper()
	seen := make(map[core.Item]bool)
	for i, x := range tr.items {
		if seen[x] {
			t.Fatalf("item %d twice in the directory", x)
		}
		seen[x] = true
		if i > 0 && tr.ests[i] < tr.ests[(i-1)/2] {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}

// TestParentFrameDecodes: the registry example's frame as committed
// before the directory moved onto the batch re-rank (its candidates in
// the old loop's heap order) still decodes, re-encodes to the same
// bytes, and carries the very sketch today's example builds.
func TestParentFrameDecodes(t *testing.T) {
	frame, err := os.ReadFile("testdata/parent_example.bin")
	if err != nil {
		t.Fatal(err)
	}
	var old Tracker
	if err := old.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	checkHeap(t, &old)
	again, err := old.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("parent frame does not re-encode to its own bytes")
	}
	now := New(16, 512, 4, 11)
	now.UpdateBatch(gen.NewZipf(512, 1.2, 11).Stream(137))
	a, _ := old.sketch.MarshalBinary()
	b, _ := now.sketch.MarshalBinary()
	if !bytes.Equal(a, b) || old.N() != now.N() {
		t.Fatal("today's example builds a different sketch from the parent's")
	}
}
