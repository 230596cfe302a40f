package core

import (
	"encoding/binary"
	"slices"
	"testing"
)

// collapseOracle is what a Collapse must return for a stream of (item,
// weight) additions: a map for the sums, a list for first occurrence.
func collapseOracle(ws []Counter) []Counter {
	at := make(map[Item]int)
	var out []Counter
	for _, w := range ws {
		if i, ok := at[w.Item]; ok {
			out[i].Count += w.Count
			continue
		}
		at[w.Item] = len(out)
		out = append(out, w)
	}
	return out
}

// checkCollapse feeds ws to a pooled Collapse — unit weights through
// AddItems when every weight is 1, else through Add — and holds Pairs
// to the oracle and Ascending to a stable sort of it by count.
func checkCollapse(t *testing.T, ws []Counter) {
	t.Helper()
	want := collapseOracle(ws)
	c := GetCollapse()
	defer PutCollapse(c)
	unit := true
	for _, w := range ws {
		unit = unit && w.Count == 1
	}
	if unit {
		xs := make([]Item, len(ws))
		for i, w := range ws {
			xs[i] = w.Item
		}
		c.AddItems(xs)
	} else {
		for _, w := range ws {
			c.Add(w.Item, w.Count)
		}
	}
	if got := c.Pairs(); !slices.Equal(got, want) {
		t.Fatalf("Pairs of %d additions: %d pairs, want %d\ngot  %v\nwant %v", len(ws), len(got), len(want), head(got), head(want))
	}
	asc := slices.Clone(want)
	slices.SortStableFunc(asc, func(a, b Counter) int {
		switch {
		case a.Count < b.Count:
			return -1
		case a.Count > b.Count:
			return 1
		}
		return 0
	})
	if got := c.Ascending(); !slices.Equal(got, asc) {
		t.Fatalf("Ascending of %d pairs differs from a stable sort by count\ngot  %v\nwant %v", len(want), head(got), head(asc))
	}
	if !slices.Equal(c.Pairs(), want) {
		t.Fatal("Ascending reordered Pairs")
	}
}

func head(cs []Counter) []Counter { return cs[:min(len(cs), 12)] }

func unitWeights(xs []Item) []Counter {
	out := make([]Counter, len(xs))
	for i, x := range xs {
		out[i] = Counter{Item: x, Count: 1}
	}
	return out
}

func TestCollapseMatchesOracle(t *testing.T) {
	rng := xorshift(0x9e3779b97f4a7c15)
	items := func(n int, universe uint64) []Item {
		out := make([]Item, n)
		for i := range out {
			out[i] = Item(rng.next() % universe)
		}
		return out
	}
	distinct := make([]Item, 5000)
	for i := range distinct {
		distinct[i] = Item(i) * 0x10001 // strided: many share low bits
	}
	// Every key once, then again: the table outgrows its up-front size
	// in mid-batch, and each key must still be found after the move.
	twice := append(slices.Clone(distinct), distinct...)
	equal := slices.Repeat([]Item{42}, 3000)
	var weighted []Counter
	for i, x := range items(3000, 300) {
		weighted = append(weighted, Counter{Item: x, Count: uint64(i%7) + 1})
	}
	for name, ws := range map[string][]Counter{
		"empty":                nil,
		"one":                  unitWeights([]Item{7}),
		"zero item":            unitWeights([]Item{0, 0, 1, 0}),
		"all equal":            unitWeights(equal),
		"all distinct (grows)": unitWeights(distinct),
		"distinct, then again": unitWeights(twice),
		"few keys":             unitWeights(items(8192, 5)),
		"edge-like":            unitWeights(items(8192, 2048)),
		"mostly distinct":      unitWeights(items(20000, 1<<40)),
		"extreme keys":         unitWeights([]Item{0, ^Item(0), 1 << 63, ^Item(0), 0}),
		"weighted":             weighted,
	} {
		t.Run(name, func(t *testing.T) { checkCollapse(t, ws) })
	}
}

// TestCollapseAscendingSaturates: beside 2-bit pair indices, counts
// from 2^62 up sort as equals, in arrival order; a light pair still
// comes first and Pairs stays exact.
func TestCollapseAscendingSaturates(t *testing.T) {
	c := GetCollapse()
	defer PutCollapse(c)
	ws := []Counter{{Item: 1, Count: 1 << 61}, {Item: 2, Count: 3}, {Item: 3, Count: 1<<63 + 5}, {Item: 1, Count: 1 << 61}}
	for _, w := range ws {
		c.Add(w.Item, w.Count)
	}
	if got, want := c.Pairs(), collapseOracle(ws); !slices.Equal(got, want) {
		t.Fatalf("Pairs %v, want %v", got, want)
	}
	want := []Counter{{Item: 2, Count: 3}, {Item: 1, Count: 1 << 62}, {Item: 3, Count: 1<<63 + 5}}
	if got := c.Ascending(); !slices.Equal(got, want) {
		t.Fatalf("Ascending %v, want %v", got, want)
	}
}

// TestCollapseReuse: a pooled Collapse carries nothing from one batch to
// the next — after a large batch, after Reset, and through AddItems and
// Add mixed in one batch.
func TestCollapseReuse(t *testing.T) {
	c := GetCollapse()
	defer PutCollapse(c)
	big := make([]Item, 50000)
	for i := range big {
		big[i] = Item(i)
	}
	c.AddItems(big)
	c.Reset()
	c.AddItems([]Item{3, 1, 3})
	c.Add(2, 5)
	c.Add(1, 2)
	c.AddItems([]Item{2, 9})
	want := []Counter{{Item: 3, Count: 2}, {Item: 1, Count: 3}, {Item: 2, Count: 6}, {Item: 9, Count: 1}}
	if got := c.Pairs(); !slices.Equal(got, want) {
		t.Fatalf("after reuse: %v, want %v", got, want)
	}
	if got := c.Ascending(); !slices.Equal(got, []Counter{want[3], want[0], want[1], want[2]}) {
		t.Fatalf("Ascending %v", got)
	}
}

// FuzzCollapse holds Pairs and Ascending to the oracle for byte-program
// streams: each 3-byte step adds an item from a small or a wide key
// space, weighted now and then (which sends the stream through Add
// rather than AddItems).
func FuzzCollapse(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 0, 0, 0})
	f.Add(slices.Repeat([]byte{0xff, 7, 1}, 400))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var ws []Counter
		for i := 0; i+3 <= len(prog); i += 3 {
			x := Item(prog[i])
			if prog[i+1]&1 == 1 {
				x = Item(binary.LittleEndian.Uint16(prog[i:])) << 40
			}
			w := uint64(1)
			if prog[i+2] > 200 {
				w = uint64(prog[i+2])
			}
			ws = append(ws, Counter{Item: x, Count: w})
		}
		checkCollapse(t, ws)
	})
}

// TestCollapseAllocs: once warm, a pooled Collapse collapses and sorts
// an edge-sized batch without allocating.
func TestCollapseAllocs(t *testing.T) {
	rng := xorshift(99)
	xs := make([]Item, 8192)
	for i := range xs {
		xs[i] = Item(rng.next() % 2048)
	}
	run := func() {
		c := GetCollapse()
		c.AddItems(xs)
		c.Ascending()
		PutCollapse(c)
	}
	run()
	if raceEnabled {
		t.Skip("the race detector drops pooled values at random")
	}
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("warm collapse of 8192 items: %.1f allocs, want 0", got)
	}
}
