package spacesaving

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/mg"
)

func mustStates(t *testing.T, k int, cs []CounterState) *Summary {
	t.Helper()
	var n uint64
	for _, c := range cs {
		n += c.Count
	}
	s, err := FromStates(k, n, 0, cs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func goldenInputs(t *testing.T) (*Summary, *Summary) {
	t.Helper()
	s1 := mustStates(t, 5, []CounterState{
		{Item: 1, Count: 5}, {Item: 2, Count: 7}, {Item: 3, Count: 12}, {Item: 4, Count: 14}, {Item: 5, Count: 18},
	})
	s2 := mustStates(t, 5, []CounterState{
		{Item: 6, Count: 4}, {Item: 7, Count: 16}, {Item: 8, Count: 17}, {Item: 9, Count: 19}, {Item: 10, Count: 23},
	})
	return s1, s2
}

// Golden test from §5.2 of the supplied text: combined summary after
// minima subtraction.
func TestCombinedGoldenExample(t *testing.T) {
	s1, s2 := goldenInputs(t)
	combined := CombinedCounters(s1, s2)
	want := []core.Counter{
		{Item: 2, Count: 2}, {Item: 3, Count: 7}, {Item: 4, Count: 9}, {Item: 7, Count: 12},
		{Item: 5, Count: 13}, {Item: 8, Count: 13}, {Item: 9, Count: 15}, {Item: 10, Count: 19},
	}
	if len(combined) != len(want) {
		t.Fatalf("combined = %v", combined)
	}
	for i := range want {
		if combined[i] != want[i] {
			t.Fatalf("combined[%d] = %v, want %v", i, combined[i], want[i])
		}
	}
}

// §5.2.1: the PODS'12 merge (the text's Algorithm 1) produces
// [(5,1),(8,1),(9,3),(10,7)] with total error 48.
func TestMergeGoldenExample(t *testing.T) {
	s1, s2 := goldenInputs(t)
	combined := CombinedCounters(s1, s2)
	m, err := merged(s1, s2, (*Summary).Merge)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Item]uint64{5: 1, 8: 1, 9: 3, 10: 7}
	if m.Len() != len(want) {
		t.Fatalf("merged has %d counters: %v", m.Len(), m.Counters())
	}
	for item, count := range want {
		if got := m.Estimate(item).Value; got != count {
			t.Errorf("merged[%d] = %d, want %d", item, got, count)
		}
	}
	if te := TotalMergeError(combined, m); te != 48 {
		t.Errorf("total error = %d, want 48", te)
	}
	if m.N() != 56+79 {
		t.Errorf("N = %d, want 135", m.N())
	}
	// under = mu1 + mu2 + cut = 5 + 4 + 12.
	if m.UnderBound() != 21 {
		t.Errorf("UnderBound = %d, want 21", m.UnderBound())
	}
}

// §5.2.2: the low-total-error merge (the text's Algorithm 3) produces
// [(7,12),(5,13),(8,15),(9,22),(10,28)] with total error 18.
func TestMergeLowErrorGoldenExample(t *testing.T) {
	s1, s2 := goldenInputs(t)
	combined := CombinedCounters(s1, s2)
	m, err := merged(s1, s2, (*Summary).MergeLowError)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Item]uint64{7: 12, 5: 13, 8: 15, 9: 22, 10: 28}
	if m.Len() != len(want) {
		t.Fatalf("merged has %d counters: %v", m.Len(), m.Counters())
	}
	for item, count := range want {
		if got := m.Estimate(item).Value; got != count {
			t.Errorf("merged[%d] = %d, want %d", item, got, count)
		}
	}
	if te := TotalMergeError(combined, m); te != 18 {
		t.Errorf("total error = %d, want 18", te)
	}
	// The headline claim: 18 < 48.
	pods, err := merged(s1, s2, (*Summary).Merge)
	if err != nil {
		t.Fatal(err)
	}
	if TotalMergeError(combined, m) >= TotalMergeError(combined, pods) {
		t.Error("low-error merge not better on the worked example")
	}
	// under = mu1 + mu2 only (no prune subtraction).
	if m.UnderBound() != 9 {
		t.Errorf("UnderBound = %d, want 9", m.UnderBound())
	}
}

func TestMergeMismatched(t *testing.T) {
	a, b := New(4), New(8)
	if err := a.Merge(b); err == nil {
		t.Error("mismatched k accepted by Merge")
	}
	if err := a.MergeLowError(b); err == nil {
		t.Error("mismatched k accepted by MergeLowError")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted by Merge")
	}
	if err := a.MergeLowError(nil); err == nil {
		t.Error("nil accepted by MergeLowError")
	}
}

func TestMergeDoesNotModifyOther(t *testing.T) {
	a, b := goldenInputs(t)
	before := b.States()
	if _, err := merged(a, b, (*Summary).Merge); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	after := b.States()
	if len(before) != len(after) {
		t.Fatal("merge modified other")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("merge modified other's states")
		}
	}
}

// The closed-form merge must equal an actual SpaceSaving run over the
// combined counters processed in ascending order (the text's §4.4
// constructive proof).
func replaySS(k int, combined []core.Counter) *Summary {
	s := New(k)
	for _, c := range combined {
		if c.Count > 0 {
			s.Update(c.Item, c.Count)
		}
	}
	return s
}

func sameCounts(t *testing.T, a, b *Summary) bool {
	t.Helper()
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
	for _, k := range []int{2, 3, 4, 5, 8, 16} {
		for seed := uint64(0); seed < 25; seed++ {
			rng := gen.NewRNG(seed*7919 + uint64(k))
			mk := func(base int) *Summary {
				s := New(k)
				cnt := rng.Intn(k) + 1
				for i := 0; i < cnt; i++ {
					s.Update(core.Item(base+i), uint64(rng.Intn(100)+1))
				}
				return s
			}
			a := mk(0)
			b := mk(1000 + rng.Intn(k)) // may overlap with a's tail
			combined := CombinedCounters(a, b)
			m, err := merged(a, b, (*Summary).MergeLowError)
			if err != nil {
				t.Fatal(err)
			}
			want := replaySS(k, combined)
			if !sameCounts(t, m, want) {
				t.Fatalf("k=%d seed=%d: closed form %v != replay %v (combined %v)",
					k, seed, m.Counters(), want.Counters(), combined)
			}
			if err := m.checkInvariants(); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
		}
	}
}

// mergeTree folds summaries pairwise in a balanced binary tree.
func mergeTree(t *testing.T, parts []*Summary, merge func(a, b *Summary) error) *Summary {
	t.Helper()
	for len(parts) > 1 {
		var next []*Summary
		for i := 0; i+1 < len(parts); i += 2 {
			if err := merge(parts[i], parts[i+1]); err != nil {
				t.Fatal(err)
			}
			next = append(next, parts[i])
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	return parts[0]
}

// Mergeability: after a merge tree over arbitrary partitions, every
// estimate interval still contains the true frequency, and the total
// width of the guarantee stays within the PODS'12 accounting:
// under <= sum over merges of (mu1+mu2+cut) <= 2*n/k for the pods
// variant (each element counted once in minima and once in prunes).
func TestMergeTreePreservesGuarantee(t *testing.T) {
	const n = 120000
	const k = 25
	stream := gen.NewZipf(3000, 1.2, 99).Stream(n)
	truth := exact.FreqOf(stream)

	partitionings := map[string][][]core.Item{
		"contiguous": gen.PartitionContiguous(stream, 16),
		"byhash":     gen.PartitionByHash(stream, 16, func(x core.Item) uint64 { return uint64(x) * 2654435761 }),
		"random":     gen.PartitionRandomSizes(stream, 16, 5),
	}
	merges := map[string]func(a, b *Summary) error{
		"pods":     (*Summary).Merge,
		"lowerror": (*Summary).MergeLowError,
	}
	for pname, parts := range partitionings {
		for mname, mfn := range merges {
			summaries := make([]*Summary, len(parts))
			for i, p := range parts {
				summaries[i] = New(k)
				for _, x := range p {
					summaries[i].Update(x, 1)
				}
			}
			m := mergeTree(t, summaries, mfn)
			if m.N() != n {
				t.Fatalf("%s/%s: N=%d, want %d", pname, mname, m.N(), n)
			}
			if m.Len() > k {
				t.Errorf("%s/%s: size %d > k", pname, mname, m.Len())
			}
			// Total two-sided guarantee stays O(eps * n): minima
			// subtractions and prunes are each bounded by n/k per the
			// PODS'12 analysis (factor 2 covers both sides).
			if m.UnderBound() > 2*n/uint64(k) {
				t.Errorf("%s/%s: under=%d exceeds 2n/k=%d", pname, mname, m.UnderBound(), 2*n/uint64(k))
			}
			for _, c := range truth.Counters() {
				e := m.Estimate(c.Item)
				if !e.Contains(c.Count) {
					t.Fatalf("%s/%s: interval %v misses true count %d of item %d",
						pname, mname, e, c.Count, c.Item)
				}
			}
			if err := m.checkInvariants(); err != nil {
				t.Fatalf("%s/%s: %v", pname, mname, err)
			}
		}
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a := New(4)
	a.Update(1, 7)
	a.Update(2, 3)
	empty := New(4)
	if err := a.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if a.N() != 10 || a.Estimate(1).Value != 7 || a.UnderBound() != 0 {
		t.Fatalf("merge with empty changed state: n=%d under=%d", a.N(), a.UnderBound())
	}
	empty2 := New(4)
	if err := empty2.MergeLowError(a); err != nil {
		t.Fatal(err)
	}
	if empty2.N() != 10 || empty2.Estimate(1).Value != 7 {
		t.Fatal("merge into empty lost state")
	}
}

// The SS <-> MG isomorphism (PODS'12 §2): a full SpaceSaving summary
// with k counters minus its minimum equals the Misra-Gries summary with
// k-1 counters over the same stream.
func TestIsomorphism(t *testing.T) {
	const n = 80000
	for _, k := range []int{2, 5, 17, 64} {
		stream := gen.NewZipf(2000, 1.3, uint64(k)*31).Stream(n)
		ss := New(k)
		mgS := mg.New(k - 1)
		if k == 1 {
			continue
		}
		for _, x := range stream {
			ss.Update(x, 1)
			mgS.Update(x, 1)
		}
		iso := ss.ToMisraGries()
		want := mgS.Counters()
		got := iso.Counters()
		if len(want) != len(got) {
			t.Fatalf("k=%d: iso has %d counters, MG has %d\niso: %v\nmg:  %v",
				k, len(got), len(want), got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("k=%d: counter %d: iso %v != mg %v", k, i, got[i], want[i])
			}
		}
		if iso.N() != mgS.N() {
			t.Fatalf("k=%d: iso N=%d, mg N=%d", k, iso.N(), mgS.N())
		}
	}
}

// Low-error merge must produce at most k counters, each with a valid
// certificate against the combined counts.
func TestMergeLowErrorCertificates(t *testing.T) {
	a, b := goldenInputs(t)
	combined := CombinedCounters(a, b)
	byItem := make(map[core.Item]uint64)
	for _, c := range combined {
		byItem[c.Item] = c.Count
	}
	m, err := merged(a, b, (*Summary).MergeLowError)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range m.States() {
		cv := byItem[st.Item]
		if st.Count < cv {
			t.Errorf("item %d: merged %d below combined %d", st.Item, st.Count, cv)
		}
		if st.Count-cv > st.Eps {
			t.Errorf("item %d: overcount %d exceeds certificate %d", st.Item, st.Count-cv, st.Eps)
		}
	}
}

// merged returns a clone of a with b folded in by merge (Merge or
// MergeLowError): the two-way merge that leaves both operands alone.
func merged(a, b *Summary, merge func(*Summary, *Summary) error) (*Summary, error) {
	out := a.Clone()
	return out, merge(out, b)
}
