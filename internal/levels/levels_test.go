package levels

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// The float instance without a payload, as the quantile summary uses it.
type (
	fstack = Stack[float64, struct{}]
	frun   = Run[float64, struct{}]
	fruns  = Runs[float64, struct{}]
)

func sortFloats(dst, src frun, scratch *[]uint64) {
	copy(dst.Keys, src.Keys)
	*scratch = codec.Resize(*scratch, 2*len(dst.Keys))
	core.SortFloats(dst.Keys, *scratch)
}

// The instance with a payload, as the range-count summary uses it.
type (
	pstack = Stack[uint32, gen.Point]
	prun   = Run[uint32, gen.Point]
	pruns  = Runs[uint32, gen.Point]
)

func sortPoints(dst, src prun, _ *[]uint64) {
	copy(dst.Keys, src.Keys)
	copy(dst.Pay, src.Pay)
	for i := 1; i < len(dst.Keys); i++ {
		for j := i; j > 0 && dst.Keys[j-1] > dst.Keys[j]; j-- {
			dst.Keys[j-1], dst.Keys[j] = dst.Keys[j], dst.Keys[j-1]
			dst.Pay[j-1], dst.Pay[j] = dst.Pay[j], dst.Pay[j-1]
		}
	}
}

// pfill returns a stack of block size s holding n points keyed by a
// hash of their index, promoted through rs as they arrive.
func pfill(rs *pruns, s int, seed uint64, n int) *pstack {
	st := &pstack{S: s, RNG: gen.NewRNG(seed)}
	for i := range n {
		st.N++
		st.Partial.Add(uint32(i)*2654435761, gen.Point{X: float64(i), Y: float64(seed)})
		if len(st.Partial.Keys) >= s {
			st.Promote(rs, sortPoints)
		}
	}
	return st
}

func putFloats(w *codec.Buffer, r frun) {
	for _, v := range r.Keys {
		w.Float64(v)
	}
}

func getFloats(b []byte, dst frun) {
	r := codec.NewReader(b)
	r.Float64s(dst.Keys)
}

// fill returns a stack of block size s holding vs, promoted as they
// arrive.
func fill(s int, seed uint64, vs []float64) *fstack {
	st := &fstack{S: s, RNG: gen.NewRNG(seed)}
	rs := new(fruns)
	for _, v := range vs {
		st.N++
		st.Partial.Keys = append(st.Partial.Keys, v)
		if len(st.Partial.Keys) >= s {
			st.Promote(rs, sortFloats)
		}
	}
	return st
}

func encode(st *fstack) []byte {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	st.Encode(w, 8, putFloats)
	return bytes.Clone(w.Bytes())
}

func decode(st *fstack, frame []byte) error {
	return st.Decode(new(fruns), codec.NewReader(frame), 8, getFloats, st.Check)
}

// refHalve is the equal-weight merge written with a branch on the keys
// and one on the alternation: ties to a, and the first element of the
// union kept unless the draw says skip.
func refHalve(rng *gen.RNG, a, b frun) []float64 {
	var out []float64
	skip := rng.Bool()
	ai, bi := 0, 0
	for ai < len(a.Keys) || bi < len(b.Keys) {
		var v float64
		if bi >= len(b.Keys) || (ai < len(a.Keys) && a.Keys[ai] <= b.Keys[bi]) {
			v = a.Keys[ai]
			ai++
		} else {
			v = b.Keys[bi]
			bi++
		}
		if !skip {
			out = append(out, v)
		}
		skip = !skip
	}
	return out
}

// TestHalveMatchesBranchy holds the branch-free halving on float keys to
// the branchy one, bit for bit, under both draws: unequal operands so
// that either one's tail is left, an empty operand, and ties across the
// operands of equal values with different bits (−0 and +0), where the
// occupant's must come first.
func TestHalveMatchesBranchy(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sorted := func(vs ...float64) frun {
		vs = append([]float64{}, vs...) // an empty operand is not an empty level
		core.SortFloats(vs, make([]uint64, 2*len(vs)))
		return frun{Keys: vs}
	}
	seedFor := func(skip bool) uint64 {
		for seed := uint64(1); ; seed++ {
			if gen.NewRNG(seed).Bool() == skip {
				return seed
			}
		}
	}
	for _, tc := range []struct {
		name string
		a, b frun
	}{
		{"signed zeros tie", sorted(-1, 0, 0, 2), sorted(negZero, negZero, 0, 3)},
		{"a's tail", sorted(1, 5, 6, 7, 8, 9, math.Inf(1)), sorted(math.Inf(-1), 2)},
		{"b's tail", sorted(1, 2), sorted(0, 3, 4, 5, 6)},
		{"one side empty", sorted(1, 2, 3), sorted()},
		{"other side empty", sorted(), sorted(1, 2, 3, 4)},
	} {
		for _, skip := range []bool{false, true} {
			got := fstack{RNG: gen.NewRNG(seedFor(skip)), Blocks: []frun{tc.a}}
			got.Absorb(new(fruns), &fstack{Blocks: []frun{tc.b}}, 0)
			g, w := got.Blocks[1].Keys, refHalve(gen.NewRNG(seedFor(skip)), tc.a, tc.b)
			if len(g) != len(w) {
				t.Fatalf("%s, skip=%v: kept %d, the branchy halving %d", tc.name, skip, len(g), len(w))
			}
			for j := range w {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("%s, skip=%v: kept %v, want %v", tc.name, skip, g, w)
				}
			}
		}
	}
}

// TestCheck: the shape laws every decoded stack is held to, one broken
// at a time.
func TestCheck(t *testing.T) {
	nan := math.NaN()
	block := func(vs ...float64) frun { return frun{Keys: vs} }
	for _, tc := range []struct {
		name string
		st   fstack
		want string // "" when the stack is valid
	}{
		{"valid", fstack{S: 2, N: 5, Partial: block(9), Blocks: []frun{{}, block(1, 2)}}, ""},
		{"sampled, weight not exact", fstack{S: 2, Ell: 1, N: 3, Partial: block(9), Blocks: []frun{{}, block(1, 2)}}, ""},
		{"full partial", fstack{S: 2, N: 2, Partial: block(1, 2)}, "partial of 2"},
		{"NaN in the partial", fstack{S: 2, N: 1, Partial: block(nan)}, "NaN"},
		{"NaN first in a block", fstack{S: 2, N: 2, Blocks: []frun{block(nan, 1)}}, "NaN"},
		{"NaN last in a block", fstack{S: 2, N: 2, Blocks: []frun{block(1, nan)}}, "NaN"},
		{"unsorted block", fstack{S: 2, N: 2, Blocks: []frun{block(2, 1)}}, "out of order"},
		{"NaN, a lone block", fstack{S: 1, N: 1, Blocks: []frun{block(nan)}}, "NaN"},
		{"short block", fstack{S: 2, N: 1, Blocks: []frun{block(1)}}, "has 1 elements"},
		{"block below the partial", fstack{S: 2, Ell: 1, Blocks: []frun{block(1, 2)}}, "below"},
		{"65 levels", fstack{S: 2, Blocks: make([]frun, MaxLevels+1)}, "at most 64"},
		{"weight off by one", fstack{S: 2, N: 3, Blocks: []frun{block(1, 2)}}, "!= n"},
		{"weight wraps to n", fstack{S: 2, N: 1, Partial: block(0), Blocks: append(make([]frun, 63), block(1, 2))}, "fits: false"},
	} {
		err := tc.st.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeFailureLeavesEmpty: a stack decodes what it encodes, and a
// frame that stops short — truncated, a level table past 64 levels, or
// one Check refuses — leaves the receiver empty with the frame's block
// size, ready to decode again.
func TestDecodeFailureLeavesEmpty(t *testing.T) {
	src := fill(4, 1, gen.UniformValues(1000, 2))
	frame := encode(src)
	var st fstack
	st.S = 4
	if err := decode(&st, frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(&st), frame) {
		t.Fatal("decoded stack encodes differently")
	}
	w := codec.GetBuffer()
	w.Uint64(0)
	w.Uint64(1)
	w.Int(0)
	w.Int(MaxLevels + 1)
	for range MaxLevels + 1 {
		w.Int(0)
	}
	tooTall := bytes.Clone(w.Bytes())
	codec.PutBuffer(w)
	for name, bad := range map[string][]byte{
		"truncated":      frame[:len(frame)-3],
		"trailing bytes": append(slices.Clone(frame), 0),
		"65 levels":      tooTall,
		"wrong weight":   append([]byte{frame[0] ^ 1}, frame[1:]...),
	} {
		if err := decode(&st, frame); err != nil {
			t.Fatal(err)
		}
		if err := decode(&st, bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if st.S != 4 || st.N != 0 || st.Ell != 0 || st.Size() != 0 || st.Levels() != 0 {
			t.Fatalf("%s: left S=%d N=%d Ell=%d size %d, %d levels", name, st.S, st.N, st.Ell, st.Size(), st.Levels())
		}
	}
}

// TestKeepsOnlyItsState: a stack that merges and decodes in a loop holds
// its blocks and nothing else; the sort run and retired blocks stay in
// the borrowed Runs, whose free list is capped at core.MaxFree.
func TestKeepsOnlyItsState(t *testing.T) {
	rs := new(fruns)
	acc := fill(64, 1, nil)
	var target fstack
	for i := range uint64(100) {
		target.S = 64
		if err := target.Decode(rs, codec.NewReader(encode(fill(64, i, gen.UniformValues(4096, i)))), 8, getFloats, target.Check); err != nil {
			t.Fatal(err)
		}
		acc.Absorb(rs, &target, 0)
		for _, v := range target.Partial.Keys {
			acc.Partial.Keys = append(acc.Partial.Keys, v)
			if len(acc.Partial.Keys) >= acc.S {
				acc.Promote(rs, sortFloats)
			}
		}
		if err := acc.Check(); err != nil {
			t.Fatal(err)
		}
	}
	held := func(st *fstack) int {
		h := 8*cap(st.Partial.Keys) + 48*cap(st.Blocks)
		for _, b := range st.Blocks {
			h += 8 * cap(b.Keys)
		}
		return h
	}
	for name, st := range map[string]*fstack{"accumulator": acc, "decode target": &target} {
		if live := 8 * st.Size(); held(st)-live > live+1024 {
			t.Errorf("%s: %d B held beside %d B of live elements", name, held(st)-live, live)
		}
	}
	// A query sorts the partial into the borrowed runs, not the stack.
	before, partial := held(acc), slices.Clone(acc.Partial.Keys)
	for w, need := acc.StoredWeight(), uint64(0); need <= w+1; need += 1 + w/100 {
		acc.Select(rs, need, sortFloats)
	}
	if held(acc) != before || !slices.Equal(acc.Partial.Keys, partial) {
		t.Error("Select changed the stack it queried")
	}
	if len(rs.Sorted.Keys) != len(partial) {
		t.Errorf("the sorted partial is not in the borrowed runs: %d of %d keys", len(rs.Sorted.Keys), len(partial))
	}
	if len(rs.Free) > core.MaxFree {
		t.Errorf("free list holds %d runs, cap %d", len(rs.Free), core.MaxFree)
	}
	for _, b := range rs.Free {
		if !core.Fits(cap(b.Keys), 64, 64) {
			t.Errorf("retired run of capacity %d for blocks of 64", cap(b.Keys))
		}
	}
}

// TestLenderFitsKeysAndPayload: a cloned block's keys and payload are
// each rounded up to their own allocation size class (5 uint32 keys to
// 24 B, room for 6; 5 points to 80 B, room for 5), so once a merge into
// the clone retires that block, the free list holds a run with more
// room for keys than for points. A block of 6, promoted by a stack of
// another block size or read by a decode, must not be cut from it.
func TestLenderFitsKeysAndPayload(t *testing.T) {
	rs := new(pruns)
	clone := pfill(rs, 5, 1, 5).Clone()
	clone.Absorb(rs, pfill(rs, 5, 2, 5), 0) // retires the clone's level-0 block
	if err := clone.Check(); err != nil {
		t.Fatal(err)
	}
	six := pfill(rs, 6, 3, 6)
	if err := six.Check(); err != nil {
		t.Fatal(err)
	}
	for _, b := range rs.Free {
		if len(b.Keys) > cap(b.Pay) {
			t.Fatalf("free run of %d keys but room for %d points", len(b.Keys), cap(b.Pay))
		}
	}
}

// walkSelect is Select as a sorted walk: every stored element with its
// level weight, in key order, and the first whose running weight
// reaches need; the largest element when none does.
func walkSelect(st *fstack, need uint64) float64 {
	type elem struct {
		k float64
		w uint64
	}
	var all []elem
	for i, b := range st.Blocks {
		for _, k := range b.Keys {
			all = append(all, elem{k, 1 << uint(i)})
		}
	}
	for _, k := range st.Partial.Keys {
		all = append(all, elem{k, 1 << uint(st.Ell)})
	}
	slices.SortStableFunc(all, func(a, b elem) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	var cum uint64
	for _, e := range all {
		if cum += e.w; cum >= need {
			return e.k
		}
	}
	return all[len(all)-1].k
}

// randomStack returns a valid stack of block size s whose keys come
// from a few values (ties within and across levels, ±0 and ±Inf among
// them), with a partial at level ell, blocks at random levels at or
// above it, and a random number of partial elements.
func randomStack(rng *gen.RNG, s, ell int) *fstack {
	pool := []float64{math.Inf(-1), -2, math.Copysign(0, -1), 0, 0.5, 3, math.Inf(1)}
	key := func() float64 { return pool[rng.Uint64()%uint64(len(pool))] }
	st := &fstack{S: s, Ell: ell, RNG: rng}
	for i := ell; i < ell+6; i++ {
		for len(st.Blocks) <= i {
			st.Blocks = append(st.Blocks, frun{})
		}
		if rng.Bool() {
			continue
		}
		b := make([]float64, s)
		for j := range b {
			b[j] = key()
		}
		core.SortFloats(b, make([]uint64, 2*s))
		st.Blocks[i] = frun{Keys: b}
	}
	for range rng.Uint64() % uint64(s) {
		st.Partial.Keys = append(st.Partial.Keys, key())
	}
	st.N = st.StoredWeight()
	return st
}

// TestSelectMatchesWalk holds Select and Rank to a sorted walk and a
// count over random stacks, at every need from 0 to past the stored
// weight: stacks with and without a partial, with Ell above 0, and
// with ties of equal keys of different bits, which must answer equal.
func TestSelectMatchesWalk(t *testing.T) {
	rng := gen.NewRNG(1)
	rs := new(fruns)
	for trial := range 300 {
		st := randomStack(rng, 1+int(rng.Uint64()%5), int(rng.Uint64()%3))
		if st.Size() == 0 {
			continue
		}
		if err := st.Check(); err != nil {
			t.Fatal(err)
		}
		for need := range st.StoredWeight() + 2 {
			if got, want := st.Select(rs, need, sortFloats), walkSelect(st, need); got != want {
				t.Fatalf("trial %d: Select(%d) = %v, the walk %v", trial, need, got, want)
			}
		}
		for _, k := range []float64{math.Inf(-1), -3, -2, 0, 1, 3, math.Inf(1)} {
			var want uint64
			for i, b := range st.Blocks {
				for _, x := range b.Keys {
					if x <= k {
						want += 1 << uint(i)
					}
				}
			}
			for _, x := range st.Partial.Keys {
				if x <= k {
					want += 1 << uint(st.Ell)
				}
			}
			if got := st.Rank(k); got != want {
				t.Fatalf("trial %d: Rank(%v) = %d, want %d", trial, k, got, want)
			}
		}
	}
}
