package mergesum_test

import (
	"sync"
	"testing"

	mergesum "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/window"
)

// TestEndToEndPipeline drives the whole stack at moderate scale: a
// skewed item stream and a latency stream are sharded across sites;
// every summary family is built per site, shipped through the binary
// codec into a live summaryd, pulled back, and checked against exact
// oracles. Run with -short to skip.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration soak skipped in -short mode")
	}
	const (
		sites = 12
		n     = 240000
		k     = 128
		eps   = 0.01
	)
	itemStream := gen.NewZipf(8000, 1.25, 42).Stream(n)
	valStream := gen.LogNormalValues(n, 1, 0.6, 43)
	itemTruth := exact.FreqOf(itemStream)
	valOracle := exact.QuantilesOf(valStream)

	// Start the aggregation daemon.
	srv := server.New()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	itemParts := gen.PartitionByHash(itemStream, sites, func(x core.Item) uint64 { return uint64(x) * 0x9e3779b1 })
	valParts := gen.PartitionContiguous(valStream, sites)

	// Each "site" builds all its summaries and pushes them.
	var wg sync.WaitGroup
	for site := 0; site < sites; site++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Errorf("site %d dial: %v", id, err)
				return
			}
			defer c.Close()

			mgS := mergesum.NewMisraGries(k)
			ssS := mergesum.NewSpaceSaving(k)
			hll := mergesum.NewHLL(12, 7)
			for _, x := range itemParts[id] {
				mgS.Update(x, 1)
				ssS.Update(x, 1)
				hll.Update(x)
			}
			q := mergesum.NewQuantile(eps, uint64(id)+1)
			gkS := mergesum.NewGK(eps)
			for _, v := range valParts[id] {
				q.Update(v)
				gkS.Update(v)
			}
			for slot, push := range map[string]func() (uint64, error){
				"flows.mg":  func() (uint64, error) { return c.Push("flows.mg", "mg", mgS) },
				"flows.ss":  func() (uint64, error) { return c.Push("flows.ss", "ss", ssS) },
				"users.hll": func() (uint64, error) { return c.Push("users.hll", "hll", hll) },
				"lat.q":     func() (uint64, error) { return c.Push("lat.q", "quantile", q) },
				"lat.gk":    func() (uint64, error) { return c.Push("lat.gk", "gk", gkS) },
			} {
				if _, err := push(); err != nil {
					t.Errorf("site %d push %s: %v", id, slot, err)
				}
			}
		}(site)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Heavy hitters: both counter summaries must cover all true HHs.
	threshold := mergesum.HeavyThreshold(n, 200)
	trueHH := itemTruth.HeavyHitters(threshold)
	var mgM mergesum.MisraGries
	if _, err := c.Pull("flows.mg", &mgM); err != nil {
		t.Fatal(err)
	}
	var ssM mergesum.SpaceSaving
	if _, err := c.Pull("flows.ss", &ssM); err != nil {
		t.Fatal(err)
	}
	if mgM.N() != n || ssM.N() != n {
		t.Fatalf("pulled N: mg=%d ss=%d", mgM.N(), ssM.N())
	}
	for _, hh := range trueHH {
		if e := mgM.Estimate(hh.Item); !e.Contains(hh.Count) {
			t.Errorf("mg interval %v misses %d for item %d", e, hh.Count, hh.Item)
		}
		if e := ssM.Estimate(hh.Item); !e.Contains(hh.Count) {
			t.Errorf("ss interval %v misses %d for item %d", e, hh.Count, hh.Item)
		}
	}

	// Quantiles within eps.
	var qM mergesum.Quantile
	if _, err := c.Pull("lat.q", &qM); err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.5, 0.95, 0.99} {
		got := qM.Quantile(phi)
		rank := valOracle.Rank(got)
		target := uint64(phi * float64(n))
		diff := rank - target
		if target > rank {
			diff = target - rank
		}
		if diff > uint64(eps*float64(n))+2 {
			t.Errorf("quantile phi=%v rank error %d", phi, diff)
		}
	}

	// Distinct count within 5%.
	var hllM mergesum.HLL
	if _, err := c.Pull("users.hll", &hllM); err != nil {
		t.Fatal(err)
	}
	est := hllM.Estimate()
	trueD := float64(itemTruth.Distinct())
	if est < trueD*0.95 || est > trueD*1.05 {
		t.Errorf("HLL estimate %v vs true %v", est, trueD)
	}

	// STAT sees all five slots with the right push counts.
	stats, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("STAT rows = %d", len(stats))
	}
	for _, st := range stats {
		if st.Pushes != sites {
			t.Errorf("slot %s has %d pushes, want %d", st.Name, st.Pushes, sites)
		}
	}
}

// TestConcurrentShardedWindow composes the concurrency wrapper with
// the sliding window the way they are designed to stack: workers
// ingest into a Sharded summary; at each epoch boundary the shards are
// Drained, folded into one epoch summary with mg.MergeMany semantics
// (via MergeSequential), and merged into the Windowed view's live
// epoch; window queries then merge epochs. Every layer is pure
// mergeability.
func TestConcurrentShardedWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("integration soak skipped in -short mode")
	}
	const (
		epochs   = 6
		retain   = 4
		workers  = 4
		perEpoch = 8000
		k        = 64
	)
	mkShard := func(int) *mergesum.MisraGries { return mergesum.NewMisraGries(k) }
	sh := shard.New(workers, mkShard)
	w := window.New(retain, func(uint64) *mergesum.MisraGries { return mergesum.NewMisraGries(k) })
	truthByEpoch := make([]*exact.FreqTable, epochs)

	for e := 0; e < epochs; e++ {
		if e > 0 {
			if err := w.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		truth := exact.NewFreqTable()
		truthByEpoch[e] = truth
		var wg sync.WaitGroup
		var mu sync.Mutex
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				stream := gen.NewZipf(500, 1.4, uint64(e*10+id)+1).Stream(perEpoch / workers)
				local := exact.NewFreqTable()
				for _, x := range stream {
					sh.Update(uint64(x), func(s *mergesum.MisraGries) { s.Update(x, 1) })
					local.Add(x, 1)
				}
				mu.Lock()
				truth.Merge(local)
				mu.Unlock()
			}(wk)
		}
		wg.Wait()
		// Epoch boundary: drain the shards and fold them into the
		// window's current epoch.
		drained := sh.Drain(mkShard)
		epochSummary, err := mergesum.MergeSequential(drained, (*mergesum.MisraGries).Merge)
		if err != nil {
			t.Fatal(err)
		}
		w.Update(func(cur *mergesum.MisraGries) { err = cur.Merge(epochSummary) })
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, lastN := range []int{1, 2, 4} {
		q, err := w.Query(lastN)
		if err != nil {
			t.Fatal(err)
		}
		if q.N() != uint64(lastN*perEpoch) {
			t.Fatalf("lastN=%d: N=%d, want %d", lastN, q.N(), lastN*perEpoch)
		}
		truth := exact.NewFreqTable()
		for e := epochs - lastN; e < epochs; e++ {
			truth.Merge(truthByEpoch[e])
		}
		for _, c := range truth.Counters()[:5] {
			if e := q.Estimate(c.Item); !e.Contains(c.Count) {
				t.Errorf("lastN=%d: interval %v misses %d for item %d", lastN, e, c.Count, c.Item)
			}
		}
	}
}
