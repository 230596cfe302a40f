package spacesaving

import "repro/internal/core"

// UpdateBatch adds one occurrence of every item in xs. It is
// guarantee-equivalent to calling Update(x, 1) for each x, not
// state-identical: the batch is collapsed into its distinct items with
// their counts (core.Collapse, one run of up to core.CollapseRun items
// at a time) and those are applied as weighted updates, lightest first.
// A weighted SpaceSaving update keeps every guarantee of a run of unit
// ones — the same N(), at most k counters, no item undercounted,
// count − eps ≤ f for each counter, UnderBound() untouched, and the
// counts summing to N once k items are monitored, so MinCount() ≤ N/k —
// so the order is free for the guarantee. It is not free for the
// error: applied in ascending order to an empty summary, every pair
// lands above all counts held, eviction is oldest-first, and exactly
// the run's k heaviest items are left monitored. An edge report pays
// per distinct key (about 1,150 in 8192 records), not per record.
func (s *Summary) UpdateBatch(xs []core.Item) {
	c := core.GetCollapse()
	for len(xs) > 0 {
		run := xs[:min(len(xs), core.CollapseRun)]
		xs = xs[len(run):]
		c.AddItems(run)
		for _, p := range c.Ascending() {
			s.update(p.Item, p.Count)
		}
		c.Reset()
	}
	core.PutCollapse(c)
	debugAssert(s)
}
