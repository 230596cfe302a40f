package epsapprox

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

// TestKeepsOnlyItsState: a summary holds its points and their keys and
// nothing else. The sort run, the decoder's read run and level table
// and retired block storage are borrowed for the call, so after a
// served slot's loop — 200 edge frames decoded into one pooled target,
// each merged into one accumulator — and after one fresh 8192-point
// chunk, the capacity a summary holds beyond its live points is at
// most those points again plus a small constant.
func TestKeepsOnlyItsState(t *testing.T) {
	box := exact.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}
	edge := func(s *Summary, seed uint64) {
		for _, p := range gen.UniformPoints(8192, seed) {
			s.Update(p)
		}
	}
	var target Summary
	slot := NewEpsilon(0.05, box, 1)
	for i := range uint64(200) {
		s := NewEpsilon(0.05, box, i)
		edge(s, i%8)
		frame, err := s.MarshalBinary()
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
	fresh := NewEpsilon(0.05, box, 99)
	edge(fresh, 99)
	const point = 16 + 4 // a point and its Morton key
	for name, s := range map[string]*Summary{"slot": slot, "decode target": &target, "fresh": fresh} {
		live := point * s.Size()
		held := 16*cap(s.lv.Partial.Pay) + 4*cap(s.lv.Partial.Keys) + 48*cap(s.lv.Blocks)
		for _, b := range s.lv.Blocks {
			held += 16*cap(b.Pay) + 4*cap(b.Keys)
		}
		if extra := held - live; extra > live+1024 {
			t.Errorf("%s: %d B held beside %d B of live points", name, extra, live)
		}
	}
}
