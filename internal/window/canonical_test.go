package window

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mg"
	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// canon is the canonical-answer oracle: it folds the aligned
// decomposition of an epoch range with explicit nested ReduceEncoded
// calls — a block is the reduce of its non-empty children in epoch
// order, an answer the reduce of its blocks — and knows nothing of the
// store, the planner or the cache. It does not model eviction: ask it
// only for ranges whose pieces the plane still retains.
type canon struct {
	t      testing.TB
	ent    *registry.Entry
	ladder Ladder
	level0 func(epoch uint64) []byte // an epoch's sealed frame, nil if it sealed empty
	blocks map[[2]uint64][]byte
}

func newCanon(t testing.TB, ent *registry.Entry, l Ladder, level0 func(uint64) []byte) *canon {
	nl, err := l.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return &canon{t: t, ent: ent, ladder: nl, level0: level0, blocks: map[[2]uint64][]byte{}}
}

func (c *canon) reduce(pieces [][]byte) []byte {
	switch len(pieces) {
	case 0:
		return nil
	case 1:
		return pieces[0]
	}
	frame, err := ReduceEncoded(c.ent, pieces)
	if err != nil {
		c.t.Fatal(err)
	}
	return frame
}

// block returns the frame of the level segment starting at from.
func (c *canon) block(level int, from uint64) []byte {
	if level == 0 {
		return c.level0(from)
	}
	key := [2]uint64{uint64(level), from}
	if f, ok := c.blocks[key]; ok {
		return f
	}
	var children [][]byte
	for i := 0; i < c.ladder.Fan; i++ {
		if f := c.block(level-1, from+uint64(i)*c.ladder.span(level-1)); f != nil {
			children = append(children, f)
		}
	}
	var frame []byte
	if len(children) > 0 {
		// A roll-up always reduces, even a lone child.
		var err error
		if frame, err = ReduceEncoded(c.ent, children); err != nil {
			c.t.Fatal(err)
		}
	}
	c.blocks[key] = frame
	return frame
}

// answer returns the canonical frame for the sealed range [from, to],
// nil when nothing was summarized there.
func (c *canon) answer(from, to uint64) []byte {
	var pieces [][]byte
	for pos := from; pos <= to; {
		level := c.ladder.Levels - 1
		for ; level > 0; level-- {
			if span := c.ladder.span(level); (pos-1)%span == 0 && pos+span-1 <= to {
				break
			}
		}
		if f := c.block(level, pos); f != nil {
			pieces = append(pieces, f)
		}
		pos += c.ladder.span(level)
	}
	return c.reduce(pieces)
}

// scriptSizes is a deterministic write history: epoch e absorbs
// ent.Example(n) for each n in scriptSizes(e), in order; every seventh
// epoch is empty. Sizes run to a few hundred items so that mg / ss
// prune and qdigest / rangecount compress — below that their folds
// happen to agree whatever the tree.
func scriptSizes(e uint64) []int {
	switch {
	case e%7 == 0:
		return nil
	case e%3 == 0:
		return []int{int(97*e%601) + 1, int(53*e%470) + 1}
	}
	return []int{int(131*e%640) + 1}
}

// sealedFrame is what an epoch that absorbed ent.Example(n) for each n
// in sizes seals: the first example becomes the live summary and the
// rest merge into it, as Absorb does. nil for an empty epoch.
func sealedFrame(t testing.TB, ent *registry.Entry, sizes []int) []byte {
	if len(sizes) == 0 {
		return nil
	}
	acc := ent.Example(sizes[0])
	for _, n := range sizes[1:] {
		if err := ent.Merge(acc, ent.Example(n)); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := ent.Encode(acc)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// runScriptEpoch plays epoch p.Epoch() of the script and seals it.
func runScriptEpoch(t testing.TB, p *Plane, ent *registry.Entry) {
	for _, n := range scriptSizes(p.Epoch()) {
		if _, err := p.Absorb(ent.Example(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
}

// TestAnswerIsCanonical: for every registered family on the default
// ladder, a sealed range queried immediately after the seal that
// completes a block — no wait, nothing to wait for — answers with the
// bytes of the canonical nested fold: [3,16] is six epoch frames and
// one block, never fourteen frames flat — the two trees give different
// bytes for mg, ss, gk, quantile, bottomk, rangecount, qdigest and topk.
func TestAnswerIsCanonical(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			p, err := NewPlane(ent, nil, DefaultLadder())
			if err != nil {
				t.Fatal(err)
			}
			want := newCanon(t, ent, DefaultLadder(), func(e uint64) []byte { return sealedFrame(t, ent, scriptSizes(e)) })
			for sealed := uint64(1); sealed <= 72; sealed++ {
				runScriptEpoch(t, p, ent)
				if sealed%8 != 0 {
					continue
				}
				// Unaligned starts inside level 0's 32-epoch horizon, and
				// the aligned epoch 1 that needs no level-0 segment.
				for _, back := range []uint64{13, 21, 29, sealed - 1} {
					if back >= sealed {
						continue
					}
					from := sealed - back
					got, err := p.QueryEncoded(from, sealed)
					if err != nil {
						t.Fatalf("[%d,%d]: %v", from, sealed, err)
					}
					if w := want.answer(from, sealed); !bytes.Equal(got, w) {
						t.Fatalf("[%d,%d] right after its seal: %d bytes, canonical fold has %d", from, sealed, len(got), len(w))
					}
				}
			}
		})
	}
}

// TestAnswerSurvivesCacheClear: a sealed range answers with the same
// bytes when it is served from the answer cache and when, the cache
// having overflowed and been cleared, it is computed again.
func TestAnswerSurvivesCacheClear(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			p, err := NewPlane(ent, nil, Ladder{Fan: 4, Levels: 3, Horizon: []uint64{1 << 20, 1 << 20, 1 << 20}})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 32; e++ {
				runScriptEpoch(t, p, ent)
			}
			first, err := p.QueryEncoded(3, 32) // asked right after the seal that stored [17,32]
			if err != nil {
				t.Fatal(err)
			}
			for from := uint64(1); from <= 12; from++ {
				for to := from + 1; to <= from+12; to++ {
					if _, err := p.QueryEncoded(from, to); err != nil && !errors.Is(err, ErrNoData) {
						t.Fatal(err)
					}
				}
			}
			misses := p.Stats().CacheMisses
			again, err := p.QueryEncoded(3, 32)
			if err != nil {
				t.Fatal(err)
			}
			if p.Stats().CacheMisses != misses+1 {
				t.Fatal("144 distinct ranges in between did not push [3,32] out of the cache")
			}
			if !bytes.Equal(first, again) {
				t.Fatalf("[3,32] answered %d bytes before the cache was cleared and %d after", len(first), len(again))
			}
		})
	}
}

// evictingLadders retain little history at some level, so a few epochs
// evict at every level.
var evictingLadders = []Ladder{
	{Fan: 2, Levels: 2, Horizon: []uint64{2, 4}},
	{Fan: 2, Levels: 3, Horizon: []uint64{4, 2, 4}}, // the coarsest level retains no longer than the finest
}

// TestAnswerIndependentOfCacheHistory: an answer is a function of the
// range and the writes, not of what was asked before. For every family,
// a plane that caches every answer and one whose cache is cleared before
// each query take the same writes through three horizons of the
// coarsest level; at every epoch every range — live epoch included —
// must answer both with the same bytes or the same error. Fewer ranges
// exist than the cache holds, so the caching plane never drops an
// answer it computed: one that outlived the eviction of its epochs
// would be served here.
func TestAnswerIndependentOfCacheHistory(t *testing.T) {
	for _, l := range evictingLadders {
		nl, err := l.normalize()
		if err != nil {
			t.Fatal(err)
		}
		epochs := 3*slices.Max(nl.Horizon) + 3
		if epochs*(epochs+1)/2 >= maxCachedQueries {
			t.Fatalf("%d epochs have more ranges than the cache holds", epochs)
		}
		for _, ent := range registry.Entries() {
			t.Run(fmt.Sprintf("%v/%s", nl.Horizon, ent.Name()), func(t *testing.T) {
				t.Parallel()
				cached, err := NewPlane(ent, nil, l)
				if err != nil {
					t.Fatal(err)
				}
				uncached, _ := NewPlane(ent, nil, l)
				for now := uint64(1); now <= epochs; now++ {
					for _, n := range scriptSizes(now) {
						for _, p := range []*Plane{cached, uncached} {
							if _, err := p.Absorb(ent.Example(n)); err != nil {
								t.Fatal(err)
							}
						}
					}
					for from := uint64(1); from <= now; from++ {
						for to := from; to <= now; to++ {
							got, gotErr := cached.QueryEncoded(from, to)
							uncached.mu.Lock()
							clear(uncached.cache)
							uncached.mu.Unlock()
							want, wantErr := uncached.QueryEncoded(from, to)
							if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
								t.Fatalf("epoch %d, [%d, %d]: caching plane answers %d bytes (%v), uncached plane %d bytes (%v)",
									now, from, to, len(got), gotErr, len(want), wantErr)
							}
						}
					}
					for _, p := range []*Plane{cached, uncached} {
						if err := p.Advance(); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestEvictionErrorNamesAnswerableEpoch: a range refused for eviction
// names an epoch the plane can still answer on its own. At every epoch
// of the cache-history script, each refused range's error must name an
// epoch E whose single-epoch query answers or finds no data.
func TestEvictionErrorNamesAnswerableEpoch(t *testing.T) {
	const marker = "granularity is "
	ent, _ := registry.ByName("mg")
	for _, l := range evictingLadders {
		p, err := NewPlane(ent, nil, l)
		if err != nil {
			t.Fatal(err)
		}
		for now := uint64(1); now <= 3*slices.Max(p.ladder.Horizon)+3; now++ {
			for _, n := range scriptSizes(now) {
				if _, err := p.Absorb(ent.Example(n)); err != nil {
					t.Fatal(err)
				}
			}
			refused := 0
			for from := uint64(1); from <= now; from++ {
				for to := from; to <= now; to++ {
					_, err := p.QueryEncoded(from, to)
					if err == nil || errors.Is(err, ErrNoData) {
						continue
					}
					refused++
					msg := err.Error()
					_, tail, _ := strings.Cut(msg, marker)
					named, perr := strconv.ParseUint(tail, 10, 64)
					if perr != nil {
						t.Fatalf("%v epoch %d, [%d, %d]: error names no epoch: %v", l.Horizon, now, from, to, err)
					}
					if _, err := p.QueryEncoded(named, named); err != nil && !errors.Is(err, ErrNoData) {
						t.Fatalf("%v epoch %d, [%d, %d] refused with %q, but [%d, %d] answers %v",
							l.Horizon, now, from, to, msg, named, named, err)
					}
				}
			}
			if now > p.ladder.Horizon[0]+1 && refused == 0 {
				t.Fatalf("%v epoch %d: no range refused", l.Horizon, now)
			}
			if err := p.Advance(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNoGoroutinePerPlane: planes and views start nothing, so dropping
// them without any Close leaks nothing.
func TestNoGoroutinePerPlane(t *testing.T) {
	ent, _ := registry.ByName("mg")
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		p, err := NewPlane(ent, nil, DefaultLadder())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Absorb(ent.Example(3)); err != nil {
			t.Fatal(err)
		}
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
		w := New(4, newMG)
		w.Update(func(s *mg.Summary) { s.Update(1, 1) })
		if err := w.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 1000 planes and views, %d after", before, after)
	}
}

// failingOps makes one Encode or DecodeInto fail on demand.
type failingOps struct {
	*registry.Entry
	failEncode, failDecode bool
}

func (f *failingOps) Encode(v any) ([]byte, error) {
	if f.failEncode {
		return nil, errors.New("encode refused")
	}
	return f.Entry.Encode(v)
}

func (f *failingOps) DecodeInto(dst any, frame []byte) error {
	if f.failDecode {
		return errors.New("decode refused")
	}
	return f.Entry.DecodeInto(dst, frame)
}

// TestAdvanceReturnsEveryFailure: a seal that cannot encode and a
// roll-up that cannot decode both come back from Advance — joined when
// one seal meets both — the epoch turns over regardless, and a failed
// roll-up stores nothing coarser, so the planner keeps answering from
// the finer segments.
func TestAdvanceReturnsEveryFailure(t *testing.T) {
	ent, _ := registry.ByName("mg")
	ops := &failingOps{Entry: ent}
	p, err := NewPlane(ops, nil, Ladder{Fan: 2, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	absorb := func() {
		if _, err := p.Absorb(ent.Example(5)); err != nil {
			t.Fatal(err)
		}
	}
	absorb()
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	absorb()
	ops.failEncode, ops.failDecode = true, true
	err = p.Advance() // epoch 2: the seal fails, and so does rolling up [1,2]
	ops.failEncode, ops.failDecode = false, false
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sealing epoch 2")) ||
		!bytes.Contains([]byte(err.Error()), []byte("rolling up level-1 segment [1, 2]")) {
		t.Fatalf("Advance = %v, want the seal and the roll-up failure joined", err)
	}
	if p.Epoch() != 3 {
		t.Fatalf("epoch = %d after a failed seal, want 3", p.Epoch())
	}
	absorb()
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	absorb()
	ops.failDecode = true
	err = p.Advance() // epoch 4 closes [3,4] and [1,4]; the first failure stops the cascade
	ops.failDecode = false
	if err == nil || bytes.Contains([]byte(err.Error()), []byte("level-2")) {
		t.Fatalf("Advance = %v, want the level-1 roll-up failure alone", err)
	}
	if got := fmt.Sprint(p.Stats().Segments); got != "[3 0 0]" {
		t.Fatalf("segments per level = %s, want [3 0 0]", got)
	}
	v, err := p.Query(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := ent.N(v), 3*exampleN(ent, 5); n != want {
		t.Fatalf("N over [1,4] = %d, want %d from the three epochs that sealed", n, want)
	}
}
