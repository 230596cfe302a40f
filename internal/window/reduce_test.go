package window

import (
	"errors"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/registry"
)

// treeOps is an Ops whose summaries are merge expressions: a frame
// decodes to its own label, a merge writes "(dst src)" into dst and logs
// the (dst, src) pair by each side's first frame. The final expression
// is the fold's tree, with every summary's merges in the order it
// absorbed them.
type treeOps struct {
	log       [][2]int
	live, max int // scratch summaries out of the pool
	failAt    int // frame label whose decode fails; -1 for none
}

type treeNode struct {
	first int
	expr  string
}

func (o *treeOps) Name() string                 { return "tree" }
func (o *treeOps) New() any                     { return new(treeNode) }
func (o *treeOps) Encode(v any) ([]byte, error) { return []byte(v.(*treeNode).expr), nil }
func (o *treeOps) N(v any) uint64               { return 0 }

func (o *treeOps) GetScratch() any {
	o.live++
	o.max = max(o.max, o.live)
	return new(treeNode)
}

func (o *treeOps) PutScratch(any) { o.live-- }

func (o *treeOps) DecodeInto(dst any, frame []byte) error {
	i, err := strconv.Atoi(string(frame))
	if err != nil {
		return err
	}
	if i == o.failAt {
		return errors.New("corrupt frame")
	}
	*dst.(*treeNode) = treeNode{first: i, expr: string(frame)}
	return nil
}

func (o *treeOps) Merge(dst, src any) error {
	d, s := dst.(*treeNode), src.(*treeNode)
	o.log = append(o.log, [2]int{d.first, s.first})
	d.expr = "(" + d.expr + " " + s.expr + ")"
	return nil
}

func labels(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = []byte(strconv.Itoa(i))
	}
	return frames
}

// TestReduceIsParallelsTree: folding as it decodes, Reduce builds the
// tree mergetree.Parallel's round pairing builds, for every n ≤ 64 —
// each summary absorbs the same sources in the same order, so the bytes
// are the same. Only the interleaving of independent merges differs
// (Parallel finishes a round before it starts the next), which leaves
// the set of (dst, src) merges equal.
func TestReduceIsParallelsTree(t *testing.T) {
	for n := 1; n <= 64; n++ {
		ops := &treeOps{failAt: -1}
		got, err := ReduceEncoded(ops, labels(n))
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*treeNode, n)
		for i := range parts {
			parts[i] = &treeNode{first: i, expr: strconv.Itoa(i)}
		}
		ref := &treeOps{}
		root, err := mergetree.Parallel(parts, 1, func(dst, src *treeNode) error { return ref.Merge(dst, src) })
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != root.expr {
			t.Fatalf("n=%d: Reduce folds %s, Parallel %s", n, got, root.expr)
		}
		cmp := func(a, b [2]int) int { return a[0]*1000 + a[1] - b[0]*1000 - b[1] }
		slices.SortFunc(ops.log, cmp)
		slices.SortFunc(ref.log, cmp)
		if !slices.Equal(ops.log, ref.log) {
			t.Fatalf("n=%d: merges %v, Parallel's %v", n, ops.log, ref.log)
		}
		if ops.live != 0 {
			t.Fatalf("n=%d: %d scratch summaries not returned", n, ops.live)
		}
	}
}

// TestReduceHoldsLogScratch: however many frames, Reduce holds at most
// ⌈log2 n⌉+2 scratch summaries at once — the stack of partial folds
// plus the one being decoded — and hands every one back, on success
// (all but the result) and when a decode fails midway.
func TestReduceHoldsLogScratch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 100, 255, 256, 257, 1000, 1024} {
		bound := bits.Len(uint(n-1)) + 2
		for _, failAt := range []int{-1, n / 2, n - 1} {
			ops := &treeOps{failAt: failAt}
			acc, err := Reduce(ops, labels(n))
			if failAt < 0 {
				if err != nil {
					t.Fatal(err)
				}
				ops.PutScratch(acc)
			} else if err == nil || acc != nil {
				t.Fatalf("n=%d, frame %d corrupt: got %v, %v", n, failAt, acc, err)
			}
			if ops.max > bound {
				t.Errorf("n=%d, fail at %d: %d scratch summaries live at once, bound %d", n, failAt, ops.max, bound)
			}
			if ops.live != 0 {
				t.Errorf("n=%d, fail at %d: %d scratch summaries not returned", n, failAt, ops.live)
			}
		}
	}
}

// TestReduceErrors: an empty list, a corrupt frame and a failed merge
// are errors naming the family and where the reduce stopped.
func TestReduceErrors(t *testing.T) {
	ent, ok := registry.ByName("mg")
	if !ok {
		t.Fatal("mg is not registered")
	}
	encode := func(s *mg.Summary) []byte {
		frame, err := ent.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	a, b := mg.New(8), mg.New(16)
	a.Update(1, 3)
	b.Update(2, 5)
	fa, fb := encode(a), encode(b)
	for name, c := range map[string]struct {
		frames [][]byte
		want   string
	}{
		"empty":        {nil, "merging 0 frames (mg)"},
		"corrupt":      {[][]byte{fa, fa[:len(fa)-1], fa}, "decoding frame 2/3 (mg)"},
		"mismatched k": {[][]byte{fa, fa, fb}, "merging 3 frames (mg)"},
	} {
		if _, err := Reduce(ent, c.frames); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to name %q", name, err, c.want)
		}
	}
}
