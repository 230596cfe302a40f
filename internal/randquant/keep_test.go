package randquant

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// TestKeepsOnlyItsState: a summary holds its samples and nothing else.
// Promotion's sort keys and retired block storage are borrowed for the
// call, so after a served slot's loop — 200 edge frames decoded into
// one pooled target, each merged into one accumulator — and after one
// fresh 8192-value batch, the capacity a summary holds beyond its live
// samples is at most those samples again plus a small constant; and a
// query leaves the summary as it was, its sorted partial in the lender.
func TestKeepsOnlyItsState(t *testing.T) {
	var target Summary
	slot := NewEpsilon(0.02, 1)
	for i := range uint64(200) {
		q := NewEpsilon(0.02, i)
		q.UpdateBatch(gen.LogNormalValues(8192, 0, 1, i%8))
		frame, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := target.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		if err := slot.Merge(&target); err != nil {
			t.Fatal(err)
		}
	}
	fresh := NewEpsilon(0.02, 99)
	fresh.UpdateBatch(gen.LogNormalValues(8192, 0, 1, 99))
	longest := 0
	for name, q := range map[string]*Summary{"slot": slot, "decode target": &target, "fresh": fresh} {
		live := 8 * q.Size()
		held := 8*cap(q.lv.Partial.Keys) + 48*cap(q.lv.Blocks)
		for _, b := range q.lv.Blocks {
			held += 8 * cap(b.Keys)
		}
		if extra := held - live; extra > live+1024 {
			t.Errorf("%s: %d B held beside %d B of live samples", name, extra, live)
		}
		// A query sorts the partial in lent scratch and hands it back:
		// the summary holds what it held.
		frame := mustMarshal(t, q)
		for _, phi := range refPhis {
			q.Quantile(phi)
			q.Rank(phi)
		}
		if !bytes.Equal(mustMarshal(t, q), frame) {
			t.Errorf("%s: a query changed the summary", name)
		}
		longest = max(longest, len(q.lv.Partial.Keys))
	}
	rs := lender.Get()
	defer lender.Put(rs)
	if cap(rs.Sorted.Keys) < longest {
		t.Errorf("the lender's sorted run has room for %d, the longest partial queried is %d", cap(rs.Sorted.Keys), longest)
	}
}
