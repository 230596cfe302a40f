package topk

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,...) did not panic")
		}
	}()
	New(0, 64, 2, 1)
}

func TestSmallStreamExact(t *testing.T) {
	tr := New(4, 1024, 4, 1)
	tr.Update(1, 10)
	tr.Update(2, 5)
	tr.Update(3, 1)
	top := tr.Top()
	if len(top) != 3 {
		t.Fatalf("Top has %d entries", len(top))
	}
	if top[0].Item != 1 || top[0].Count != 10 {
		t.Errorf("top[0] = %v", top[0])
	}
	if tr.N() != 16 {
		t.Errorf("N = %d", tr.N())
	}
}

func TestDirectoryBounded(t *testing.T) {
	tr := New(8, 512, 4, 1)
	for _, x := range gen.NewZipf(5000, 1.1, 2).Stream(50000) {
		tr.Update(x, 1)
	}
	if got := len(tr.Top()); got != 8 {
		t.Fatalf("directory size %d, want 8", got)
	}
}

func TestFindsTrueTopItems(t *testing.T) {
	const n = 100000
	z := gen.NewZipf(5000, 1.5, 7)
	stream := z.Stream(n)
	truth := exact.FreqOf(stream)
	tr := New(16, 2048, 4, 3)
	for _, x := range stream {
		tr.Update(x, 1)
	}
	got := make(map[core.Item]bool)
	for _, c := range tr.Top() {
		got[c.Item] = true
	}
	// The true top-8 must all be in the tracked top-16 (slack for
	// sketch noise).
	for _, c := range truth.Counters()[:8] {
		if !got[c.Item] {
			t.Errorf("true top item %d (count %d) missing from directory", c.Item, c.Count)
		}
	}
}

func TestMergePreservesHeavyHitters(t *testing.T) {
	const n = 80000
	z := gen.NewZipf(3000, 1.4, 9)
	stream := z.Stream(n)
	truth := exact.FreqOf(stream)
	parts := gen.PartitionByHash(stream, 8, func(x core.Item) uint64 { return uint64(x) * 0x9e3779b1 })
	trackers := make([]*Tracker, len(parts))
	for i, p := range parts {
		trackers[i] = New(16, 2048, 4, 3)
		for _, x := range p {
			trackers[i].Update(x, 1)
		}
	}
	acc := trackers[0]
	for _, tr := range trackers[1:] {
		if err := acc.Merge(tr); err != nil {
			t.Fatal(err)
		}
	}
	if acc.N() != n {
		t.Fatalf("N = %d", acc.N())
	}
	got := make(map[core.Item]bool)
	for _, c := range acc.Top() {
		got[c.Item] = true
	}
	for _, c := range truth.Counters()[:8] {
		if !got[c.Item] {
			t.Errorf("true top item %d missing after merge", c.Item)
		}
	}
	// Merged estimates never underestimate (Count-Min property is
	// preserved by cell-wise addition).
	for _, c := range truth.Counters()[:50] {
		if est := acc.Estimate(c.Item); est.Value < c.Count {
			t.Errorf("item %d underestimated: %d < %d", c.Item, est.Value, c.Count)
		}
	}
}

func TestMergeMismatched(t *testing.T) {
	a := New(8, 64, 2, 1)
	if err := a.Merge(New(16, 64, 2, 1)); err == nil {
		t.Error("mismatched k accepted")
	}
	if err := a.Merge(New(8, 128, 2, 1)); err == nil {
		t.Error("mismatched sketch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil accepted")
	}
}

func TestMergedDoesNotModifyInputs(t *testing.T) {
	a, b := New(4, 64, 2, 1), New(4, 64, 2, 1)
	a.Update(1, 5)
	b.Update(2, 7)
	m := a.Clone()
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 5 || b.N() != 7 || m.N() != 12 {
		t.Fatalf("N: a=%d b=%d m=%d", a.N(), b.N(), m.N())
	}
	if m.Estimate(2).Value < 7 {
		t.Error("merged lost item 2")
	}
}

func TestHeavyHittersThreshold(t *testing.T) {
	tr := New(8, 1024, 4, 1)
	tr.Update(1, 100)
	tr.Update(2, 50)
	tr.Update(3, 10)
	hh := tr.HeavyHitters(50)
	if len(hh) != 2 || hh[0].Item != 1 || hh[1].Item != 2 {
		t.Fatalf("HeavyHitters(50) = %v", hh)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := New(16, 512, 4, 5)
	for _, x := range gen.NewZipf(1000, 1.3, 6).Stream(30000) {
		tr.Update(x, 1)
	}
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Tracker
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.N() != tr.N() || got.K() != tr.K() {
		t.Fatal("header changed")
	}
	want, have := tr.Top(), got.Top()
	if len(want) != len(have) {
		t.Fatalf("directory size changed: %d vs %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("directory entry %d: %v vs %v", i, have[i], want[i])
		}
	}
	data[len(data)-5] ^= 0xff
	if err := got.UnmarshalBinary(data); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(4, 64, 2, 1)
	a.Update(1, 5)
	c := a.Clone()
	c.Update(2, 9)
	if a.N() != 5 || c.N() != 14 {
		t.Fatal("clone not independent")
	}
	if len(a.Top()) != 1 || len(c.Top()) != 2 {
		t.Fatal("clone directory not independent")
	}
}

// TestUpdatedTrackerHasOneFrame: Update refreshes only its own item's
// estimate, so after a run of them the directory's heap can be ordered
// by stale estimates. The frame still lists the candidates as the
// decoder rebuilds them — a heap on estimates against the sketch as it
// is — so decoding it and encoding again gives the same bytes. A
// narrow sketch makes the estimates move under the directory.
func TestUpdatedTrackerHasOneFrame(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		tr := New(8, 16, 2, seed)
		for _, x := range gen.NewZipf(200, 1.1, seed).Stream(3000) {
			tr.Update(x, 1)
		}
		data, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Tracker
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("seed %d: the encoder's own frame refused: %v", seed, err)
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("seed %d: decoded and encoded again, the frame changed", seed)
		}
	}
}
