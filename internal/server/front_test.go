package server

import (
	"encoding"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mg"
)

// startFrontServer returns a running server with the PUSHB ingest
// front enabled.
func startFrontServer(t *testing.T, lanes int, tick time.Duration) (string, func()) {
	t.Helper()
	s := New()
	s.SetIngestFront(lanes, tick)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return addr, func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// A PULL issued after a front-mode PUSHB's OK reply must observe the
// push even if the epoch ticker has not fired: PULL flushes the lanes.
func TestFrontReadYourWrites(t *testing.T) {
	addr, stop := startFrontServer(t, 4, time.Hour) // ticker effectively off
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s1 := mg.New(16)
	s1.Update(7, 100)
	s2 := mg.New(16)
	s2.Update(9, 50)
	n, err := c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("front PUSHB returned n=%d, want pushed weight 150", n)
	}

	var got mg.Summary
	if _, err := decoded(&got)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if got.N() != 150 || got.Estimate(7).Value != 100 || got.Estimate(9).Value != 50 {
		t.Fatalf("pull after front PUSHB lost data: n=%d", got.N())
	}

	// The reply's count is cumulative pushed weight, monotone across
	// flushes.
	s3 := mg.New(16)
	s3.Update(7, 25)
	if n, err = c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{s3}); err != nil {
		t.Fatal(err)
	}
	if n != 175 {
		t.Fatalf("second front PUSHB returned n=%d, want 175", n)
	}
}

// STAT must also absorb lane-parked batches.
func TestFrontStatFlushes(t *testing.T) {
	addr, stop := startFrontServer(t, 4, time.Hour)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := mg.New(16)
	s.Update(1, 40)
	if _, err := c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{s}); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].N != 40 {
		t.Fatalf("STAT after front PUSHB = %+v, want one slot with n=40", infos)
	}
}

// Kind mismatches must be caught even when the slot's only state is
// lane-parked (summary still nil, ent bound).
func TestFrontKindMismatch(t *testing.T) {
	addr, stop := startFrontServer(t, 4, time.Hour)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := mg.New(16)
	s.Update(1, 1)
	if _, err := c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{s}); err != nil {
		t.Fatal(err)
	}
	s2 := mg.New(16)
	s2.Update(2, 1)
	if _, err := c.PushBatch("flows", "ss", []encoding.BinaryMarshaler{s2}); err == nil {
		t.Fatal("mismatched kind accepted into front-mode slot")
	}
	if _, err := c.Push("flows", "ss", s2); err == nil {
		t.Fatal("mismatched single PUSH accepted into front-mode slot")
	}
}

// TestFrontConcurrentStress races front-mode PUSHB against PULL with a
// fast epoch tick (run under -race): weight must be conserved and
// every pulled snapshot must be a valid MG summary whose N never
// exceeds the total pushed so far.
func TestFrontConcurrentStress(t *testing.T) {
	const (
		k        = 64
		workers  = 8
		batches  = 30
		perBatch = 4
	)
	addr, stop := startFrontServer(t, 4, time.Millisecond)
	defer stop()

	var (
		mu    sync.Mutex
		exact = make(map[core.Item]uint64)
		total uint64
	)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(wk)))
			for b := 0; b < batches; b++ {
				frames := make([]encoding.BinaryMarshaler, perBatch)
				local := make(map[core.Item]uint64)
				var ln uint64
				for i := range frames {
					s := mg.New(k)
					for j := 0; j < 128; j++ {
						x := core.Item(rng.Intn(48))
						s.Update(x, 1)
						local[x]++
						ln++
					}
					frames[i] = s
				}
				// Record the weight before pushing so the reader's
				// ceiling check (pulled N <= recorded total) is sound:
				// the server can never hold weight the test has not yet
				// counted.
				mu.Lock()
				for x, v := range local {
					exact[x] += v
				}
				total += ln
				mu.Unlock()
				if _, err := c.PushBatch("stress", "mg", frames); err != nil {
					t.Errorf("worker %d: %v", wk, err)
					return
				}
			}
		}(wk)
	}

	// Reader racing the pushes and the epoch ticks.
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		c, err := Dial(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			var got mg.Summary
			if _, err := decoded(&got)(c.PullFrame("stress")); err != nil {
				continue // slot may not exist yet
			}
			mu.Lock()
			ceiling := total
			mu.Unlock()
			if got.N() > ceiling {
				t.Errorf("pulled N=%d exceeds pushed total %d", got.N(), ceiling)
				return
			}
		}
	}()

	wg.Wait()
	close(stopRead)
	readWG.Wait()

	// Final pull observes everything (PULL flushes the lanes).
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got mg.Summary
	if _, err := decoded(&got)(c.PullFrame("stress")); err != nil {
		t.Fatal(err)
	}
	if got.N() != total {
		t.Fatalf("final N = %d, want %d (weight lost)", got.N(), total)
	}
	bound := got.ErrorBound()
	if maxBound := total / uint64(k+1); bound > maxBound {
		t.Fatalf("merged bound %d > n/(k+1) = %d", bound, maxBound)
	}
	for x, cnt := range exact {
		est := got.Estimate(x).Value
		if est > cnt {
			t.Fatalf("item %d overestimated: %d > %d", x, est, cnt)
		}
		if cnt > bound && est+bound < cnt {
			t.Fatalf("item %d underestimated past bound: %d + %d < %d", x, est, bound, cnt)
		}
	}
}

// On a fronted node every write goes through the lanes, so OK <n> means
// one thing whatever mix of PUSH and PUSHB produced it: the weight
// acknowledged into the slot so far.
func TestFrontMixedWriteTotals(t *testing.T) {
	addr, stop := startFrontServer(t, 4, time.Hour)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	weigh := func(w uint64) *mg.Summary {
		s := mg.New(16)
		s.Update(7, w)
		return s
	}
	var got [3]uint64
	if got[0], err = c.Push("flows", "mg", weigh(100)); err != nil {
		t.Fatal(err)
	}
	if got[1], err = c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{weigh(50)}); err != nil {
		t.Fatal(err)
	}
	if got[2], err = c.Push("flows", "mg", weigh(10)); err != nil {
		t.Fatal(err)
	}
	if want := [3]uint64{100, 150, 160}; got != want {
		t.Fatalf("PUSH 100 / PUSHB 50 / PUSH 10 answered %v, want %v", got, want)
	}
	var pulled mg.Summary
	if _, err := decoded(&pulled)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if pulled.N() != 160 {
		t.Fatalf("PULL N = %d, want 160", pulled.N())
	}
}

// A lane summary is acknowledged when it is parked; whether the slot can
// absorb it is only known at flush time. One it cannot (mg k=16 into a
// k=8 slot) must not vanish unseen: it is counted as a drop of its kind,
// and the counters still account for every acknowledged frame.
func TestFrontFlushDropIsCounted(t *testing.T) {
	addr, stop := startFrontServer(t, 4, time.Hour)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	small := mg.New(8)
	small.Update(1, 100)
	if n, err := c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{small}); err != nil || n != 100 {
		t.Fatalf("PUSHB k=8: n=%d err=%v, want 100", n, err)
	}
	var pulled mg.Summary
	if _, err := decoded(&pulled)(c.PullFrame("flows")); err != nil { // flush: the slot is k=8 now
		t.Fatal(err)
	}
	big := mg.New(16)
	big.Update(2, 50)
	if n, err := c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{big}); err != nil || n != 150 {
		t.Fatalf("PUSHB k=16: n=%d err=%v, want it acknowledged as 150", n, err)
	}
	if _, err := decoded(&pulled)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if pulled.N() != 100 {
		t.Fatalf("PULL N = %d, want the k=8 slot's 100", pulled.N())
	}
	rows, err := c.Stat()
	if err != nil || len(rows) != 1 || rows[0].N != 100 || rows[0].Pushes != 2 {
		t.Fatalf("STAT = %+v, %v; want one slot, n=100, both acknowledged pushes counted", rows, err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["kind.drop.mg"] != 1 {
		t.Fatalf("kind.drop.mg = %d, want 1: the acknowledged k=16 write was lost unseen", m["kind.drop.mg"])
	}
	// Two frames acknowledged: one installed, none merged, one dropped.
	if push, rest := m["kind.push.mg"], m["kind.merge.mg"]+1+m["kind.drop.mg"]; push != 2 || push != rest {
		t.Fatalf("kind.push.mg = %d, merge + installed + drop = %d, want both 2", push, rest)
	}

	// A mismatch met in the lane is refused in the reply, not dropped
	// later: with a k=16 summary parked, a k=8 write cannot join it.
	if _, err := c.Push("flows", "mg", big); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("flows", "mg", small); err == nil {
		t.Fatal("k=8 write merged into a lane holding k=16")
	}
}
