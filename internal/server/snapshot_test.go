package server

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mg"
)

// The slot Acc's contract: a PULL issued after a push was
// acknowledged never serves bytes from before that push. First the
// deterministic shape — warm the cache, bump the version, re-pull —
// then the concurrent one under the race detector.
func TestSnapshotCacheCoherence(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	one := mg.New(8)
	one.Update(1, 1)
	if _, err := c.Push("coh", "mg", one); err != nil {
		t.Fatal(err)
	}
	var got mg.Summary
	if _, err := decoded(&got)(c.PullFrame("coh")); err != nil { // caches epoch 1
		t.Fatal(err)
	}
	if got.N() != 1 {
		t.Fatalf("first pull N=%d, want 1", got.N())
	}
	if _, err := c.Push("coh", "mg", one); err != nil { // version bump
		t.Fatal(err)
	}
	if _, err := decoded(&got)(c.PullFrame("coh")); err != nil {
		t.Fatal(err)
	}
	if got.N() != 2 {
		t.Fatalf("pull after version bump served stale bytes: N=%d, want 2", got.N())
	}

	// Concurrent pushers that immediately re-pull: the pulled weight
	// must never lag the weight the push reply acknowledged.
	const pushers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < pushers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("pusher %d: %v", id, err)
				return
			}
			defer c.Close()
			s := mg.New(8)
			s.Update(core.Item(id), 1)
			for i := 0; i < rounds; i++ {
				n, err := c.Push("coh2", "mg", s)
				if err != nil {
					t.Errorf("pusher %d: %v", id, err)
					return
				}
				var out mg.Summary
				if _, err := decoded(&out)(c.PullFrame("coh2")); err != nil {
					t.Errorf("pusher %d pull: %v", id, err)
					return
				}
				if out.N() < n {
					t.Errorf("stale snapshot: pulled N=%d after push acknowledged %d", out.N(), n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Chaos on one slot: pushers, pullers and a resetter race. Every PULL
// must either decode cleanly (the cached bytes are never torn) or fail
// with a clean protocol error from the reset window; every other reply
// must parse. Run with -race to check the cache's synchronization.
func TestConcurrentPushPullReset(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	const workers = 4
	const rounds = 150
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("pusher %d: %v", id, err)
				return
			}
			defer c.Close()
			s := mg.New(8)
			s.Update(core.Item(id), 1)
			for i := 0; i < rounds; i++ {
				if _, err := c.Push("chaos", "mg", s); err != nil {
					t.Errorf("pusher %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("puller %d: %v", id, err)
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				var out mg.Summary
				_, err := decoded(&out)(c.PullFrame("chaos"))
				if err == nil {
					continue
				}
				msg := err.Error()
				if !strings.Contains(msg, "no such slot") && !strings.Contains(msg, "is empty") {
					t.Errorf("puller %d: non-protocol pull failure: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addr)
		if err != nil {
			t.Errorf("resetter: %v", err)
			return
		}
		defer c.Close()
		for i := 0; i < rounds/4; i++ {
			if err := c.Reset("chaos"); err != nil {
				t.Errorf("resetter: %v", err)
				return
			}
			if _, err := c.Stat(); err != nil {
				t.Errorf("resetter stat: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestSlotKeepsItsSize: a slot's cached state is one window.Acc — the
// summary, the version and the published frame pointer — and a plain
// slot stays 64 bytes on a 64-bit platform.
func TestSlotKeepsItsSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(slot{}); got > 64 {
		t.Fatalf("slot is %d bytes, want at most 64", got)
	}
}
