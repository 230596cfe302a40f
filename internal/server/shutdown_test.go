package server

import (
	"bytes"
	"encoding"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/window"
)

// TestShutdownDrainsFront: a graceful Shutdown absorbs every
// lane-parked batch before the grace period starts, so a final PULL
// on a still-open connection sees exactly the acknowledged
// pre-shutdown state — and new connections are refused.
func TestShutdownDrainsFront(t *testing.T) {
	s := New()
	// An hour-long flush tick: only Drain (or a PULL) can absorb the
	// lanes, so the test proves Shutdown does the draining.
	s.SetIngestFront(4, time.Hour)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The expected final state: the sequential fold of every pushed
	// frame, computed locally.
	want := mg.New(16)
	var batch []encoding.BinaryMarshaler
	for i := 0; i < 64; i++ {
		sum := mg.New(16)
		sum.Update(core.Item(i%8), uint64(i+1))
		want.Update(core.Item(i%8), uint64(i+1))
		batch = append(batch, sum)
	}
	if _, err := c.PushBatch("drained", "mg", batch); err != nil {
		t.Fatal(err)
	}

	shutDone := make(chan struct{})
	go func() {
		s.Shutdown(5 * time.Second)
		close(shutDone)
	}()

	// Wait until the listener is down: new connections must fail.
	deadline := time.Now().Add(3 * time.Second)
	for {
		nc, err := Dial(addr)
		if err != nil {
			break
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The open connection is served through the grace period; its
	// final PULL must equal the local fold — nothing parked in a lane
	// was lost.
	wantFrame, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	kind, got, err := c.PullFrame("drained")
	if err != nil {
		t.Fatalf("final PULL during drain: %v", err)
	}
	if kind != "mg" || !bytes.Equal(got, wantFrame) {
		t.Fatalf("final PULL differs from pre-shutdown state (%d vs %d bytes)", len(got), len(wantFrame))
	}
	c.Close()

	select {
	case <-shutDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v on graceful shutdown", err)
	}

	// After shutdown the node's state is still intact in-process.
	if _, frame, err := s.Encoded("drained"); err != nil || !bytes.Equal(frame, wantFrame) {
		t.Fatalf("post-shutdown node state lost: err=%v", err)
	}
}

// TestShutdownSealsLiveEpoch: on a windowed server, Shutdown's drain
// advances the plane, so the live epoch's pushes end up in a sealed
// segment queryable during the grace period.
func TestShutdownSealsLiveEpoch(t *testing.T) {
	s := New()
	// Hour-long tick: epochs only advance when Shutdown drains.
	s.SetWindow(window.Ladder{Fan: 4, Levels: 2}, time.Hour)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushMG(t, c, "w", 1, 30)
	pushMG(t, c, "w", 2, 12)

	go s.Shutdown(5 * time.Second)
	for {
		if s.draining.Load() && s.Epoch() >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Epoch 1 is sealed now; the final windowed query on the open
	// connection must serve it.
	var got mg.Summary
	if _, err := c.QueryWindow("w", 1, 1, &got); err != nil {
		t.Fatalf("QWIN over the sealed shutdown epoch: %v", err)
	}
	if got.N() != 42 {
		t.Fatalf("sealed epoch N = %d, want 42", got.N())
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v on graceful shutdown", err)
	}
}

// TestQueryWindowTime: wall-clock queries resolve through the epoch
// origin and tick the server reports over METRICS.
func TestQueryWindowTime(t *testing.T) {
	s, addr, stop := startWindowedServer(t, window.Ladder{Fan: 4, Levels: 2}, time.Hour)
	defer stop()
	_ = s

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushMG(t, c, "tw", 5, 17)

	// Zero times mean the full retained range, exactly as epoch zeros.
	var got mg.Summary
	kind, err := c.QueryWindowTime("tw", time.Time{}, time.Time{}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "mg" || got.N() != 17 {
		t.Fatalf("QueryWindowTime zero-span: kind=%q n=%d", kind, got.N())
	}

	// A [start-of-serving, now] span covers the live epoch (the tick
	// is an hour, so "now" still maps to epoch 1).
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	origin := time.Unix(0, int64(m["window.origin_unix_ns"]))
	var got2 mg.Summary
	if _, err := c.QueryWindowTime("tw", origin, time.Now(), &got2); err != nil {
		t.Fatal(err)
	}
	if got2.N() != 17 {
		t.Fatalf("QueryWindowTime live-span n=%d, want 17", got2.N())
	}

	// Against a non-windowed server the mapping fails with the
	// canonical disabled-windows message.
	plainAddr, plainStop := startServer(t)
	defer plainStop()
	pc, err := Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var out mg.Summary
	if _, err := pc.QueryWindowTime("tw", time.Time{}, time.Time{}, &out); err == nil {
		t.Fatal("QueryWindowTime succeeded against a non-windowed server")
	}
}

// TestQueryWindowClusterTime: the wall-clock query fanned cluster-wide.
// The contacted node's epoch clock maps the span, QWINC does the rest,
// so a span covering the live epoch returns every node's share.
func TestQueryWindowClusterTime(t *testing.T) {
	windowed := func(s *Server) { s.SetWindow(window.Ladder{Fan: 4, Levels: 2}, time.Hour) }
	addrs, _, stop := startPeerClusterWith(t, 3, 2*time.Second, 1, windowed)
	defer stop()
	conns := make([]*Client, len(addrs))
	for i, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		pushMG(t, c, "tw", uint64(i), 10*uint64(i+1)) // 10 + 20 + 30
	}

	// Zero times mean the full retained range, exactly as epoch zeros.
	var got mg.Summary
	kind, err := conns[0].QueryWindowClusterTime("tw", time.Time{}, time.Time{}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "mg" || got.N() != 60 {
		t.Fatalf("QueryWindowClusterTime zero-span: kind=%q n=%d, want mg 60", kind, got.N())
	}

	// A [start-of-serving, now] span maps to the live epoch (the tick is
	// an hour) on the contacted node's clock, whichever node is asked.
	for i, c := range conns {
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		origin := time.Unix(0, int64(m["window.origin_unix_ns"]))
		var span mg.Summary
		if _, err := c.QueryWindowClusterTime("tw", origin, time.Now(), &span); err != nil {
			t.Fatal(err)
		}
		if span.N() != 60 {
			t.Fatalf("QueryWindowClusterTime live-span via node %d: n=%d, want 60", i, span.N())
		}
	}

	// Against a non-windowed server the mapping fails before any QWINC.
	plainAddr, plainStop := startServer(t)
	defer plainStop()
	pc, err := Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.QueryWindowClusterTime("tw", time.Time{}, time.Time{}, &mg.Summary{}); err == nil {
		t.Fatal("QueryWindowClusterTime succeeded against a non-windowed server")
	}
}

// TestShutdownHangsUpPeerLinks: a peer's idle link is a connection
// nobody hangs up, so a draining node waits its whole grace period for
// it — and then hangs it up itself, so no handler outlives Shutdown.
func TestShutdownHangsUpPeerLinks(t *testing.T) {
	addrs, servers, stop := startPeerCluster(t, 2, 2*time.Second, 0)
	defer stop()
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushMG(t, c, "sd", 1, 3)
	var got mg.Summary
	if _, err := c.PullCluster("sd", &got); err != nil || got.N() != 3 {
		t.Fatalf("PULLC: n=%d err=%v", got.N(), err)
	}
	// Node 0 now keeps an idle link to node 1.
	const grace = 200 * time.Millisecond
	start := time.Now()
	servers[1].Shutdown(grace)
	if elapsed := time.Since(start); elapsed < grace || elapsed > grace+time.Second {
		t.Fatalf("Shutdown with an idle peer link open took %v, want about the %v grace", elapsed, grace)
	}
	handlers := make(chan struct{})
	go func() {
		servers[1].connWg.Wait()
		close(handlers)
	}()
	select {
	case <-handlers:
	case <-time.After(time.Second):
		t.Fatal("a connection handler outlived Shutdown: the peer's idle link was not hung up")
	}
}
