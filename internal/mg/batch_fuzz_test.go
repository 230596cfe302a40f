package mg

import (
	"testing"

	"repro/internal/core"
)

// FuzzUpdateBatch feeds the same random weighted stream to a per-item
// summary, as Update(x, w), and to a batched summary, each record
// expanded into w unit items (with fuzz-chosen k and batch boundaries),
// and checks guarantee-equivalence: identical n, at most k
// counters, no overestimation, undercount within ErrorBound, and
// ErrorBound within the theorem's n/(k+1).
func FuzzUpdateBatch(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), []byte{1, 2, 3, 250, 2, 2, 9})
	f.Add(uint64(42), uint8(1), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(7), uint8(16), uint8(64), []byte{5, 5, 5, 1, 200, 200, 201, 17})
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, chunkRaw uint8, data []byte) {
		k := int(kRaw%32) + 1
		chunk := int(chunkRaw%40) + 1

		// Derive a weighted stream from the fuzz bytes: item from the
		// byte, weight from a cheap mix of seed and position.
		stream := make([]core.Counter, len(data))
		var units []core.Item
		truth := make(map[core.Item]uint64, 64)
		var n uint64
		for i, b := range data {
			x := core.Item(b % 50)
			w := (seed+uint64(i)*2654435761)%9 + 1
			stream[i] = core.Counter{Item: x, Count: w}
			for range w {
				units = append(units, x)
			}
			truth[x] += w
			n += w
		}

		loop := New(k)
		for _, c := range stream {
			loop.Update(c.Item, c.Count)
		}
		batch := New(k)
		for i := 0; i < len(units); i += chunk {
			batch.UpdateBatch(units[i:min(i+chunk, len(units))])
		}

		for name, s := range map[string]*Summary{"loop": loop, "batch": batch} {
			if s.N() != n {
				t.Fatalf("%s: N=%d, want %d", name, s.N(), n)
			}
			if s.Len() > k {
				t.Fatalf("%s: %d counters exceed k=%d", name, s.Len(), k)
			}
			if bound := core.MGBound(n, k); s.ErrorBound() > bound {
				t.Fatalf("%s: dec=%d exceeds n/(k+1)=%d", name, s.ErrorBound(), bound)
			}
			for x, fx := range truth {
				est := s.Estimate(x)
				if est.Value > fx {
					t.Fatalf("%s: item %d estimate %d overestimates true %d", name, x, est.Value, fx)
				}
				if est.Value+s.ErrorBound() < fx {
					t.Fatalf("%s: item %d estimate %d + dec %d undercounts true %d",
						name, x, est.Value, s.ErrorBound(), fx)
				}
			}
		}
	})
}
