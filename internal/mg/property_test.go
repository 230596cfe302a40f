package mg

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/exact"
)

// buildStream turns fuzzer-style raw bytes into a small weighted
// stream over a narrow universe (to force evictions).
func buildStream(raw []byte) []core.Counter {
	out := make([]core.Counter, 0, len(raw))
	for i := 0; i+1 < len(raw); i += 2 {
		out = append(out, core.Counter{
			Item:  core.Item(raw[i] % 32),
			Count: uint64(raw[i+1]%16) + 1,
		})
	}
	return out
}

// Property: on any weighted stream, every estimate interval contains
// the true count, the summary never overestimates, and the certificate
// never exceeds n/(k+1).
func TestPropertyStreamGuarantee(t *testing.T) {
	f := func(raw []byte, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		s := New(k)
		truth := exact.NewFreqTable()
		for _, u := range buildStream(raw) {
			s.Update(u.Item, u.Count)
			truth.Add(u.Item, u.Count)
		}
		if s.ErrorBound() > core.MGBound(s.N(), k) {
			return false
		}
		if s.Len() > k {
			return false
		}
		for _, c := range truth.Counters() {
			e := s.Estimate(c.Item)
			if e.Value > c.Count || !e.Contains(c.Count) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: any split of a stream, summarized per-part and merged with
// either algorithm, stays within the single-summary bound.
func TestPropertyMergeGuarantee(t *testing.T) {
	f := func(raw []byte, kRaw, cut uint8, lowError bool) bool {
		k := int(kRaw%8) + 2
		stream := buildStream(raw)
		split := 0
		if len(stream) > 0 {
			split = int(cut) % (len(stream) + 1)
		}
		a, b := New(k), New(k)
		truth := exact.NewFreqTable()
		for i, u := range stream {
			if i < split {
				a.Update(u.Item, u.Count)
			} else {
				b.Update(u.Item, u.Count)
			}
			truth.Add(u.Item, u.Count)
		}
		var err error
		if lowError {
			err = a.MergeLowError(b)
		} else {
			err = a.Merge(b)
		}
		if err != nil || a.checkInvariants() != nil {
			return false
		}
		if a.N() != truth.N() || a.Len() > k {
			return false
		}
		if a.ErrorBound() > core.MGBound(a.N(), k) {
			return false
		}
		for _, c := range truth.Counters() {
			e := a.Estimate(c.Item)
			if e.Value > c.Count || !e.Contains(c.Count) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: codec round-trips are lossless for any reachable summary.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(raw []byte, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		s := New(k)
		for _, u := range buildStream(raw) {
			s.Update(u.Item, u.Count)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var got Summary
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		if got.N() != s.N() || got.K() != s.K() || got.ErrorBound() != s.ErrorBound() {
			return false
		}
		a, b := s.Counters(), got.Counters()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
