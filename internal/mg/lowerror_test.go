package mg

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
)

// Golden test from §5.1.2 of the supplied text: the low-total-error
// merge of the same two Frequent summaries must produce exactly the
// closed-form output, with total error 55 (vs. 80 for the PODS merge).
func TestMergeLowErrorGoldenExample(t *testing.T) {
	s1 := mustFrom(t, 4, []core.Counter{{Item: 2, Count: 4}, {Item: 3, Count: 11}, {Item: 4, Count: 22}, {Item: 5, Count: 33}})
	s2 := mustFrom(t, 4, []core.Counter{{Item: 7, Count: 10}, {Item: 8, Count: 20}, {Item: 9, Count: 30}, {Item: 10, Count: 40}})
	combined := CombinedCounters(s1, s2)

	m, err := merged(s1, s2, (*Summary).MergeLowError)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Item]uint64{4: 2, 9: 14, 5: 23, 10: 31}
	if m.Len() != len(want) {
		t.Fatalf("merged has %d counters: %v", m.Len(), m.Counters())
	}
	for item, count := range want {
		if got := m.Estimate(item).Value; got != count {
			t.Errorf("merged[%d] = %d, want %d", item, got, count)
		}
	}
	if te := TotalMergeError(combined, m); te != 55 {
		t.Errorf("total error = %d, want 55", te)
	}

	// And the text's headline claim on this example: 55 < 80.
	pods, err := merged(s1, s2, (*Summary).Merge)
	if err != nil {
		t.Fatal(err)
	}
	if TotalMergeError(combined, m) >= TotalMergeError(combined, pods) {
		t.Error("low-error merge not better than PODS merge on the worked example")
	}
}

// The §4.2 equivalence theorem: MergeLowError equals an actual
// Misra–Gries run over the combined counters processed in ascending
// order with aggregated (weighted) updates.
func replayMG(k int, combined []core.Counter) *Summary {
	s := New(k)
	for _, c := range combined {
		if c.Count > 0 {
			s.Update(c.Item, c.Count)
		}
	}
	return s
}

func sameCounters(a, b *Summary) bool {
	ca, cb := a.Counters(), b.Counters()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

func TestMergeLowErrorEqualsReplay(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		for seed := uint64(0); seed < 20; seed++ {
			rng := gen.NewRNG(seed*1000 + uint64(k))
			mk := func(itemBase int) *Summary {
				s := New(k)
				cnt := rng.Intn(k + 1)
				for i := 0; i < cnt; i++ {
					c := uint64(rng.Intn(100) + 1)
					s.add(core.Item(itemBase+i), c)
					s.n += c
				}
				return s
			}
			a, b := mk(0), mk(1000+rng.Intn(k+1)) // supports may or may not overlap
			combined := CombinedCounters(a, b)
			m, err := merged(a, b, (*Summary).MergeLowError)
			if err != nil {
				t.Fatal(err)
			}
			want := replayMG(k, combined)
			if !sameCounters(m, want) {
				t.Fatalf("k=%d seed=%d: closed form %v != replay %v (combined %v)",
					k, seed, m.Counters(), want.Counters(), combined)
			}
		}
	}
}

// The text's Lemma 4.3: the low-error merge's total error never
// exceeds the PODS'12 merge's total error, on any pair of summaries.
func TestLowErrorNeverWorse(t *testing.T) {
	f := func(counts1, counts2 []uint16, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		build := func(counts []uint16, base int) *Summary {
			s := New(k)
			for i, c := range counts {
				if i >= k {
					break
				}
				if c == 0 {
					continue
				}
				s.add(core.Item(base+i), uint64(c))
				s.n += uint64(c)
			}
			return s
		}
		a := build(counts1, 0)
		b := build(counts2, 500)
		combined := CombinedCounters(a, b)
		lo, err1 := merged(a, b, (*Summary).MergeLowError)
		po, err2 := merged(a, b, (*Summary).Merge)
		if err1 != nil || err2 != nil {
			return false
		}
		return TotalMergeError(combined, lo) <= TotalMergeError(combined, po)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Overlapping supports: both algorithms must add counts for shared
// items before pruning.
func TestMergeLowErrorOverlap(t *testing.T) {
	a := mustFrom(t, 3, []core.Counter{{Item: 1, Count: 10}, {Item: 2, Count: 6}, {Item: 3, Count: 2}})
	b := mustFrom(t, 3, []core.Counter{{Item: 1, Count: 4}, {Item: 4, Count: 8}, {Item: 5, Count: 1}})
	m, err := merged(a, b, (*Summary).MergeLowError)
	if err != nil {
		t.Fatal(err)
	}
	// combined ascending: (5,1) (3,2) (2,6) (4,8) (1,14); padded to 6:
	// [0 1 2 6 8 14]; c=3, base=C_3=2.
	// j=1: e=C_4=(2,6)  f=6-2=4
	// j=2: e=C_5=(4,8)  f=8-2+0=6
	// j=3: e=C_6=(1,14) f=14-2+1=13
	want := map[core.Item]uint64{2: 4, 4: 6, 1: 13}
	for item, count := range want {
		if got := m.Estimate(item).Value; got != count {
			t.Errorf("merged[%d] = %d, want %d", item, got, count)
		}
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
	// Cross-check against replay.
	if want := replayMG(3, CombinedCounters(a, b)); !sameCounters(m, want) {
		t.Errorf("closed form %v != replay %v", m.Counters(), want.Counters())
	}
}

func TestMergeLowErrorMismatched(t *testing.T) {
	a, b := New(4), New(8)
	if err := a.MergeLowError(b); err == nil {
		t.Fatal("mismatched k accepted")
	}
	if err := a.MergeLowError(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

// Zero-frequency closed-form outputs must be dropped, not stored.
func TestMergeLowErrorDropsZeros(t *testing.T) {
	// Two summaries with identical counter values produce f_1 = 0 when
	// C_{c+1} == C_c.
	a := mustFrom(t, 2, []core.Counter{{Item: 1, Count: 5}, {Item: 2, Count: 5}})
	b := mustFrom(t, 2, []core.Counter{{Item: 3, Count: 5}, {Item: 4, Count: 5}})
	m, err := merged(a, b, (*Summary).MergeLowError)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Counters() {
		if c.Count == 0 {
			t.Fatalf("zero counter stored: %v", m.Counters())
		}
	}
	if want := replayMG(2, CombinedCounters(a, b)); !sameCounters(m, want) {
		t.Errorf("closed form %v != replay %v", m.Counters(), want.Counters())
	}
}
