package server

import (
	"encoding"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mg"
)

// The tests in this file are named for the ingest front the server once
// had (per-connection lanes flushed by a ticker and before every read).
// Each guarantee they checked there now holds on the one write path:
// decode off the lock, one locked absorb, "OK <slot N>".

// A PULL issued after a PUSHB's OK reply observes the push, and the
// reply's count is the slot's N after the write.
func TestFrontReadYourWrites(t *testing.T) {
	addr, stop := startServer(t)
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
		t.Fatalf("PUSHB returned n=%d, want the slot's N 150", n)
	}

	var got mg.Summary
	if _, err := decoded(&got)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if got.N() != 150 || got.Estimate(7).Value != 100 || got.Estimate(9).Value != 50 {
		t.Fatalf("pull after PUSHB lost data: n=%d", got.N())
	}

	s3 := mg.New(16)
	s3.Update(7, 25)
	if n, err = c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{s3}); err != nil {
		t.Fatal(err)
	}
	if n != 175 {
		t.Fatalf("second PUSHB returned n=%d, want 175", n)
	}
}

// STAT right after a PUSHB reports the batch in the slot's N.
func TestFrontStatFlushes(t *testing.T) {
	addr, stop := startServer(t)
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
		t.Fatalf("STAT after PUSHB = %+v, want one slot with n=40", infos)
	}
}

// A slot bound to one kind refuses a frame of another, whether it
// arrives by PUSHB or by PUSH.
func TestFrontKindMismatch(t *testing.T) {
	addr, stop := startServer(t)
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
		t.Fatal("mismatched kind accepted in a batch")
	}
	if _, err := c.Push("flows", "ss", s2); err == nil {
		t.Fatal("mismatched single PUSH accepted")
	}
}

// TestFrontConcurrentStress races PUSHB against PULL (run under -race):
// weight is conserved, and every pulled snapshot is a valid MG summary
// holding a whole number of batches and never more than was pushed.
func TestFrontConcurrentStress(t *testing.T) {
	const (
		k        = 64
		workers  = 8
		batches  = 30
		perBatch = 4
		perFrame = 128
	)
	addr, stop := startServer(t)
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
					for j := 0; j < perFrame; j++ {
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

	// Reader racing the pushes.
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
			if got.N() > ceiling || got.N()%(perBatch*perFrame) != 0 {
				t.Errorf("pulled N=%d: not a whole number of batches within the %d pushed", got.N(), ceiling)
				return
			}
		}
	}()

	wg.Wait()
	close(stopRead)
	readWG.Wait()

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

// OK <n> means one thing whatever mix of PUSH and PUSHB produced it:
// the merged slot's N after the write.
func TestFrontMixedWriteTotals(t *testing.T) {
	addr, stop := startServer(t)
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

// No write is acknowledged and then dropped: one the slot cannot absorb
// (mg k=16 into a k=8 slot) is refused in its reply, by PUSH and by
// PUSHB, leaves the slot's N and push count as they were and moves no
// counter, and METRICS serves no drop row.
func TestFrontFlushDropIsCounted(t *testing.T) {
	addr, stop := startServer(t)
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
	big := mg.New(16)
	big.Update(2, 50)
	if _, err := c.Push("flows", "mg", big); err == nil {
		t.Fatal("PUSH k=16 into a k=8 slot acknowledged")
	}
	if _, err := c.PushBatch("flows", "mg", []encoding.BinaryMarshaler{big}); err == nil {
		t.Fatal("PUSHB k=16 into a k=8 slot acknowledged")
	}
	var pulled mg.Summary
	if _, err := decoded(&pulled)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if pulled.N() != 100 {
		t.Fatalf("PULL N = %d, want the k=8 slot's 100", pulled.N())
	}
	rows, err := c.Stat()
	if err != nil || len(rows) != 1 || rows[0].N != 100 || rows[0].Pushes != 1 {
		t.Fatalf("STAT = %+v, %v; want one slot, n=100, one push", rows, err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for name := range m {
		if strings.HasPrefix(name, "kind.drop.") {
			t.Fatalf("METRICS serves %s: no write is acknowledged and then dropped", name)
		}
	}
	// One frame acknowledged and installed, none merged.
	if push, rest := m["kind.push.mg"], m["kind.merge.mg"]+1; push != 1 || push != rest {
		t.Fatalf("kind.push.mg = %d, kind.merge.mg + installed = %d, want both 1", push, rest)
	}
}
