package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// clients is the number of closed-loop client goroutines, one
// connection set each: a client sends its next request only after the
// previous reply, so a slower program receives less load. Two, because
// the machine this ruler was cut for has two cores.
const clients = 2

// A workload builds instances; an instance is one fully set-up system
// under test (servers on loopback, inputs generated, oracles computed)
// with a fixed operation script per client.
type workload struct {
	name string
	why  string
	// setup builds everything from the seed. div divides the frozen
	// operation counts (1 for a real run, 50 for the smoke test).
	setup func(seed uint64, div int) (instance, error)
}

type instance interface {
	// beginRound restores the state every round starts from; untimed.
	// traced announces a traced round, for instances whose shadow node
	// needs preparing.
	beginRound(traced bool) error
	// runClient executes client c's script for one round, recording
	// every operation in rec. It must not stop at an error: a failed
	// operation is recorded as failed and the script goes on.
	runClient(c int, rec *clientRec)
	// opsPerClient is the script length (writes, reads), for sizing
	// the latency buffers so that recording allocates nothing.
	opsPerClient() (writes, reads int)
	// verify runs the output checks on the state the last round left
	// and returns err_over_bound.
	verify() (float64, error)
	// scriptHash identifies the generated inputs and script.
	scriptHash() uint64
	// merges is the number of slot-level merges the servers have
	// executed so far (the METRICS kind.merge.* counters, summed).
	merges() uint64
	close()
}

// clientRec is one client's record of one round.
type clientRec struct {
	writeLat    []time.Duration // successful writes
	readLat     []time.Duration // successful reads
	attempted   int
	failed      int
	answerBytes int64 // Σ reply payload over successful reads
	wireBytes   int64 // Σ frame bytes sent and received
	firstErr    error
	tr          *clientTrace // nil in untraced rounds
}

func (r *clientRec) write(t0, t1 time.Time, sent int, err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.writeLat = append(r.writeLat, t1.Sub(t0))
	r.wireBytes += int64(sent)
}

func (r *clientRec) read(t0, t1 time.Time, reply int, err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.readLat = append(r.readLat, t1.Sub(t0))
	r.answerBytes += int64(reply)
	r.wireBytes += int64(reply)
}

func (r *clientRec) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// roundResult is one round as measured, before normalisation.
type roundResult struct {
	wallS       float64
	cpuS        float64
	allocBytes  uint64
	ops         int // successful operations
	attempted   int
	failed      int
	writesUs    []float64 // ascending
	readsUs     []float64 // ascending
	answerBytes float64   // mean reply payload of reads
	wireBytes   int64
	merges      uint64
	firstErr    error
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRound runs every client's script once, concurrently, and measures
// the interval from the first client's start to the last one's end.
// With traced set each client also records spans.
func runRound(inst instance, traced bool) (roundResult, []*clientTrace, error) {
	if err := inst.beginRound(traced); err != nil {
		return roundResult{}, nil, fmt.Errorf("beginning round: %w", err)
	}
	writes, reads := inst.opsPerClient()
	recs := make([]*clientRec, clients)
	var traces []*clientTrace
	traceT0 := time.Now()
	for c := range recs {
		recs[c] = &clientRec{
			writeLat: make([]time.Duration, 0, writes),
			readLat:  make([]time.Duration, 0, reads),
		}
		if traced {
			// Generous: the busiest script records under 24 spans
			// per operation.
			recs[c].tr = newClientTrace(c, traceT0, 24*(writes+reads))
			traces = append(traces, recs[c].tr)
		}
	}
	// Collect now so that every round starts from an equally empty
	// heap and the collector's work inside the round is the round's own.
	runtime.GC()
	mergesBefore := inst.merges()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			inst.runClient(c, recs[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)

	res := roundResult{
		wallS:      wall,
		cpuS:       cpu1 - cpu0,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		merges:     inst.merges() - mergesBefore,
	}
	var w, r []time.Duration
	var answer int64
	for _, rec := range recs {
		w = append(w, rec.writeLat...)
		r = append(r, rec.readLat...)
		res.attempted += rec.attempted
		res.failed += rec.failed
		res.wireBytes += rec.wireBytes
		answer += rec.answerBytes
		if res.firstErr == nil {
			res.firstErr = rec.firstErr
		}
	}
	res.ops = len(w) + len(r)
	res.writesUs, res.readsUs = sortedMicros(w), sortedMicros(r)
	if len(r) > 0 {
		res.answerBytes = float64(answer) / float64(len(r))
	}
	return res, traces, nil
}

// preload runs a stretch of every client's script concurrently, the way
// a round would, untimed by itself: it is part of set-up, and leaves
// connections, slots, scratch pools and buffers in the state the first
// timed operation should find them in.
func preload(run func(c int, rec *clientRec)) error {
	recs := make([]*clientRec, clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &clientRec{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run(c, recs[c])
		}(c)
	}
	wg.Wait()
	for _, rec := range recs {
		if rec.failed > 0 {
			return fmt.Errorf("preload: %d operations failed, first: %w", rec.failed, rec.firstErr)
		}
	}
	return nil
}

// scaled divides a frozen count for the smoke test, keeping it a
// positive multiple of unit so the script's structure survives.
func scaled(count, div, unit int) int {
	n := count / div / unit * unit
	if n < unit {
		n = unit
	}
	return n
}
