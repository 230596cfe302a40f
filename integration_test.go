package mergesum_test

import (
	"encoding"
	"sync"
	"testing"

	mergesum "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/server"
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
	pull := func(slot string, out encoding.BinaryUnmarshaler) {
		t.Helper()
		_, frame, err := c.PullFrame(slot)
		if err == nil {
			err = out.UnmarshalBinary(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// Heavy hitters: both counter summaries must cover all true HHs.
	threshold := mergesum.HeavyThreshold(n, 200)
	trueHH := itemTruth.HeavyHitters(threshold)
	var mgM mergesum.MisraGries
	pull("flows.mg", &mgM)
	var ssM mergesum.SpaceSaving
	pull("flows.ss", &ssM)
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
	pull("lat.q", &qM)
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
	pull("users.hll", &hllM)
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
