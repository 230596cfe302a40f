package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mergetree"
	"repro/internal/mg"
)

// ctrOps is a minimal Ops over *uint64 accumulators for exercising the
// front's mechanics (ownership, dirty tracking, drain) without
// dragging in a summary family.
type ctrOps struct{ failMerge bool }

func (o ctrOps) Merge(dst, src any) error {
	if o.failMerge {
		return errors.New("injected merge failure")
	}
	*dst.(*uint64) += *src.(*uint64)
	return nil
}

func ctr(v uint64) *uint64 { return &v }

func TestFrontPushDrainMechanics(t *testing.T) {
	f := NewFront(ctrOps{}, 4)
	if f.Lanes() != 4 {
		t.Fatalf("Lanes() = %d, want 4", f.Lanes())
	}
	if f.Dirty() {
		t.Fatal("new front reports dirty")
	}
	if got := f.Drain(); got != nil {
		t.Fatalf("Drain on clean front = %v, want nil", got)
	}

	// First push to a lane transfers ownership; the second merges.
	consumed, err := f.Push(0, ctr(3))
	if err != nil || !consumed {
		t.Fatalf("first Push = (%v, %v), want (true, nil)", consumed, err)
	}
	consumed, err = f.Push(0, ctr(5))
	if err != nil || consumed {
		t.Fatalf("second Push = (%v, %v), want (false, nil)", consumed, err)
	}
	// A distinct token modulo lanes lands in its own lane.
	if _, err := f.Push(1, ctr(7)); err != nil {
		t.Fatal(err)
	}
	if !f.Dirty() {
		t.Fatal("front with pending lanes reports clean")
	}

	out := f.Drain()
	if len(out) != 2 {
		t.Fatalf("Drain returned %d lanes, want 2", len(out))
	}
	var total uint64
	for _, p := range out {
		total += *p.(*uint64)
	}
	if total != 15 {
		t.Fatalf("drained total = %d, want 15", total)
	}
	if f.Dirty() {
		t.Fatal("front reports dirty after full drain")
	}
}

func TestFrontPushMergeError(t *testing.T) {
	f := NewFront(ctrOps{failMerge: true}, 1)
	if consumed, err := f.Push(0, ctr(1)); err != nil || !consumed {
		t.Fatalf("installing push = (%v, %v), want (true, nil)", consumed, err)
	}
	consumed, err := f.Push(0, ctr(2))
	if err == nil {
		t.Fatal("expected injected merge failure")
	}
	if consumed {
		t.Fatal("failed merge must not consume src")
	}
	// The lane stays drainable after the failure.
	if got := f.Drain(); len(got) != 1 {
		t.Fatalf("Drain after failed merge returned %d lanes, want 1", len(got))
	}
}

func TestFrontTokenModulo(t *testing.T) {
	f := NewFront(ctrOps{}, 3)
	// Tokens 0 and 3 share lane 0; 1 gets its own.
	f.Push(0, ctr(1))
	f.Push(3, ctr(1))
	f.Push(1, ctr(1))
	if got := f.Drain(); len(got) != 2 {
		t.Fatalf("Drain returned %d lanes, want 2", len(got))
	}
}

func TestFrontDefaultLanes(t *testing.T) {
	if got := NewFront(ctrOps{}, 0).Lanes(); got < 1 {
		t.Fatalf("NewFront(ops, 0).Lanes() = %d, want >= 1", got)
	}
}

// mgOps adapts mg.Summary to the front's merge surface, standing in
// for the registry entry the server hands NewFront.
type mgOps struct{}

func (mgOps) Merge(dst, src any) error { return dst.(*mg.Summary).Merge(src.(*mg.Summary)) }

// TestFrontConcurrentPushDrain hammers a front from concurrent
// producers with drains racing the pushes (run under -race), then
// checks that nothing was lost: the final merged summary carries every
// pushed update with the MG deficit bound intact.
func TestFrontConcurrentPushDrain(t *testing.T) {
	const (
		k         = 128
		producers = 8
		batches   = 40
		perBatch  = 256
	)
	f := NewFront(mgOps{}, 4)
	truth := make([]map[core.Item]uint64, producers)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		truth[p] = make(map[core.Item]uint64)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			local := make(map[core.Item]uint64)
			for b := 0; b < batches; b++ {
				s := mg.New(k)
				for i := 0; i < perBatch; i++ {
					// Skewed stream: small ids are heavy.
					x := core.Item(rng.Intn(32))
					if rng.Intn(4) == 0 {
						x = core.Item(rng.Intn(1 << 16))
					}
					s.Update(x, 1)
					local[x]++
				}
				if consumed, err := f.Push(uint64(p), s); err != nil {
					t.Errorf("producer %d: Push: %v", p, err)
					return
				} else if !consumed {
					// Front merged it; the summary is ours to drop.
					_ = s
				}
			}
			truth[p] = local
		}(p)
	}

	// Drain concurrently with the producers, as the epoch ticker does.
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drained := mg.New(k)
	var drainedMu sync.Mutex
	absorb := func() {
		for _, p := range f.Drain() {
			drainedMu.Lock()
			if err := drained.Merge(p.(*mg.Summary)); err != nil {
				t.Errorf("absorb: %v", err)
			}
			drainedMu.Unlock()
		}
	}
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				absorb()
			}
		}
	}()

	wg.Wait()
	close(stop)
	drainWG.Wait()
	absorb() // final flush after all producers stopped

	exact := make(map[core.Item]uint64)
	var total uint64
	for _, m := range truth {
		for x, c := range m {
			exact[x] += c
			total += c
		}
	}
	if got := drained.N(); got != total {
		t.Fatalf("merged N = %d, want %d (weight lost across drains)", got, total)
	}
	if f.Dirty() {
		t.Fatal("front reports dirty after final drain")
	}
	bound := drained.ErrorBound()
	if maxBound := total / uint64(k+1); bound > maxBound {
		t.Fatalf("merged ErrorBound = %d exceeds n/(k+1) = %d", bound, maxBound)
	}
	for x, c := range exact {
		est := uint64(drained.Estimate(x).Value)
		if est > c {
			t.Fatalf("item %d overestimated: est %d > true %d", x, est, c)
		}
		if c > bound && est+bound < c {
			t.Fatalf("item %d underestimated past bound: est %d + %d < true %d", x, est, bound, c)
		}
	}
}

// TestFrontMetamorphicDrain checks that the lane partition is
// guarantee-invariant: however pushes distribute over lanes and in
// whatever order the drained shards are merged back, the result obeys
// the MG bound — the property that makes the ingest front sound.
func TestFrontMetamorphicDrain(t *testing.T) {
	const (
		k        = 64
		batches  = 24
		perBatch = 512
	)
	for _, lanes := range []int{1, 3, 8} {
		f := NewFront(mgOps{}, lanes)
		rng := rand.New(rand.NewSource(7))
		exact := make(map[core.Item]uint64)
		var total uint64
		for b := 0; b < batches; b++ {
			s := mg.New(k)
			for i := 0; i < perBatch; i++ {
				x := core.Item(rng.Intn(96))
				s.Update(x, 1)
				exact[x]++
				total++
			}
			if _, err := f.Push(uint64(rng.Intn(64)), s); err != nil {
				t.Fatal(err)
			}
		}
		shards := f.Drain()
		parts := make([]*mg.Summary, len(shards))
		for i, p := range shards {
			parts[i] = p.(*mg.Summary)
		}
		err := mergetree.Metamorphic(parts,
			func(s *mg.Summary) *mg.Summary { return s.Clone() },
			func(dst, src *mg.Summary) error { return dst.Merge(src) },
			func(topology string, merged *mg.Summary) error {
				if merged.N() != total {
					return fmt.Errorf("%s: N = %d, want %d", topology, merged.N(), total)
				}
				bound := merged.ErrorBound()
				if maxBound := total / uint64(k+1); bound > maxBound {
					return fmt.Errorf("%s: bound %d > n/(k+1) = %d", topology, bound, maxBound)
				}
				for x, c := range exact {
					est := uint64(merged.Estimate(x).Value)
					if est > c {
						return fmt.Errorf("%s: item %d est %d > true %d", topology, x, est, c)
					}
					if c > bound && est+bound < c {
						return fmt.Errorf("%s: item %d est %d + bound %d < true %d", topology, x, est, bound, c)
					}
				}
				return nil
			})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
	}
}
