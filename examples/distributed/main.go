// Distributed runs the full wire-level workflow on localhost TCP: an
// aggregator listens, 8 worker processes (goroutines here, but each
// speaking the real framed wire format) build Misra–Gries summaries
// over their shard of a Zipf stream and ship them as checksummed
// binary frames; the aggregator decodes, merges with the
// low-total-error algorithm, and reports — demonstrating that the
// codec plus merge layer is everything a real deployment needs.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	mergesum "repro"
	"repro/internal/exact"
	"repro/internal/gen"
)

const (
	workers   = 8
	perWorker = 100000
	k         = 128

	// maxFrame caps what the aggregator reads from one worker: a k=128
	// summary's frame is a few KB, so a longer stream is not one.
	maxFrame = 1 << 20
)

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	fmt.Printf("aggregator listening on %s, %d workers, %d items each\n", addr, workers, perWorker)

	// Shared ground truth for the final report.
	var truthMu sync.Mutex
	truth := exact.NewFreqTable()

	// Workers: build a summary over a private Zipf stream and ship it.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			z := gen.NewZipf(10000, 1.3, uint64(id)+1)
			s := mergesum.NewMisraGries(k)
			local := exact.NewFreqTable()
			shard := z.Stream(perWorker)
			s.UpdateBatch(shard)
			for _, x := range shard {
				local.Add(x, 1)
			}
			truthMu.Lock()
			truth.Merge(local)
			truthMu.Unlock()

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				log.Fatalf("worker %d: %v", id, err)
			}
			defer conn.Close()
			data, err := s.MarshalBinary()
			if err != nil {
				log.Fatalf("worker %d: %v", id, err)
			}
			if _, err := conn.Write(data); err != nil {
				log.Fatalf("worker %d: %v", id, err)
			}
		}(w)
	}

	// Aggregator: accept one frame per worker and fold it in. A worker
	// sends its frame and closes, so the frame is everything the
	// connection carries; a truncated or corrupted one fails to decode.
	agg := mergesum.NewMisraGries(k)
	received := 0
	for received < workers {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		frame, err := io.ReadAll(io.LimitReader(conn, maxFrame))
		conn.Close()
		if err != nil {
			log.Fatalf("aggregator: read: %v", err)
		}
		next := new(mergesum.MisraGries)
		if err := next.UnmarshalBinary(frame); err != nil {
			log.Fatalf("aggregator: decode: %v", err)
		}
		if err := agg.MergeLowError(next); err != nil {
			log.Fatalf("aggregator: merge: %v", err)
		}
		received++
	}
	wg.Wait()
	ln.Close()

	n := agg.N()
	fmt.Printf("merged %d summaries, total weight %d, error bound %d (certificate %d)\n",
		workers, n, mergesum.MGBound(n, k), agg.ErrorBound())

	threshold := mergesum.HeavyThreshold(n, 50)
	fmt.Printf("\nflows above %d (1/50 of traffic):\n", threshold)
	missed := 0
	for _, c := range truth.HeavyHitters(threshold) {
		e := agg.Estimate(c.Item)
		ok := e.Contains(c.Count)
		if !ok {
			missed++
		}
		fmt.Printf("  item %-8d true %-8d est %s  interval-correct=%v\n",
			uint64(c.Item), c.Count, e, ok)
	}
	if missed > 0 {
		log.Fatalf("%d guarantee violations — should be impossible", missed)
	}
	fmt.Println("\nall intervals contain the true counts — wire round-trip preserved the guarantee")
}
