package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mg"
	"repro/internal/window"
)

// metricsOf fetches a node's METRICS over a connection of its own.
func metricsOf(t *testing.T, addr string) map[string]uint64 {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dialAll opens one client per node, closed when the test ends.
func dialAll(t *testing.T, addrs []string) []*Client {
	t.Helper()
	conns := make([]*Client, len(addrs))
	for i, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	return conns
}

// TestClusterLinksReused: once a node has a link to each peer, cluster
// reads stop dialing — 100 sequential PULLCs on 3 nodes add nothing to
// peer.dials and two link reuses each to peer.reused.
func TestClusterLinksReused(t *testing.T) {
	addrs, _, stop := startPeerCluster(t, 3, 2*time.Second, 0)
	defer stop()
	conns := dialAll(t, addrs)
	for i, c := range conns {
		pushMG(t, c, "hot", uint64(i), 10)
	}
	if _, _, err := conns[0].PullClusterFrame("hot"); err != nil { // warm-up: dials both peers
		t.Fatal(err)
	}
	before, err := conns[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if before["peer.dials"] != 2 || before["peer.idle"] != 2 {
		t.Fatalf("after one PULLC on 3 nodes: peer.dials = %d, peer.idle = %d, want 2 and 2", before["peer.dials"], before["peer.idle"])
	}
	const reads = 100
	for i := 0; i < reads; i++ {
		var got mg.Summary
		if _, err := decoded(&got)(conns[0].PullClusterFrame("hot")); err != nil || got.N() != 30 {
			t.Fatalf("PULLC %d: n=%d err=%v", i, got.N(), err)
		}
	}
	after, err := conns[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if d := after["peer.dials"] - before["peer.dials"]; d != 0 {
		t.Fatalf("%d warm PULLCs dialed %d times, want 0", reads, d)
	}
	if r := after["peer.reused"] - before["peer.reused"]; r != 2*reads {
		t.Fatalf("%d warm PULLCs reused %d links, want %d", reads, r, 2*reads)
	}
	// The peers see those links as open connections: node 0's one idle
	// link, this test's client, and the METRICS connection itself.
	if open := metricsOf(t, addrs[1])["conns.open"]; open != 3 {
		t.Fatalf("peer's conns.open = %d, want 3", open)
	}
}

// TestClusterLinkRedialAfterPeerRestart: a peer that went away and
// came back on the same address leaves a stale link behind. The next
// fan-in must find that out and redial without spending a retry — at
// retries = 0 a restarted peer is not a partial result.
func TestClusterLinkRedialAfterPeerRestart(t *testing.T) {
	const timeout = 2 * time.Second
	startPeer := func(addr string) (*Server, chan error) {
		s := New()
		if _, err := s.Listen(addr); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Serve() }()
		return s, done
	}
	stopPeer := func(s *Server, done chan error) {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}

	peer, peerDone := startPeer("127.0.0.1:0")
	peerAddr := peer.ln.Addr().String()
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPeers(addr, []string{addr, peerAddr}, timeout, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer stopPeer(s, done)

	c := dialAll(t, []string{addr})[0]
	pushMG(t, c, "rs", 1, 5)
	pushTo := func(weight uint64) {
		pc, err := Dial(peerAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		pushMG(t, pc, "rs", 2, weight)
	}
	pushTo(7)
	var got mg.Summary
	if _, err := decoded(&got)(c.PullClusterFrame("rs")); err != nil || got.N() != 12 {
		t.Fatalf("PULLC before restart: n=%d err=%v", got.N(), err)
	}

	// Restart the peer on the same address, with different state.
	stopPeer(peer, peerDone)
	peer, peerDone = startPeer(peerAddr)
	defer stopPeer(peer, peerDone)
	pushTo(100)

	before, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if before["peer.idle"] != 1 {
		t.Fatalf("peer.idle = %d before the stale read, want the 1 stale link", before["peer.idle"])
	}
	if _, err := decoded(&got)(c.PullClusterFrame("rs")); err != nil || got.N() != 105 {
		t.Fatalf("PULLC after peer restart: n=%d err=%v", got.N(), err)
	}
	after, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if d := after["peer.dials"] - before["peer.dials"]; d != 1 {
		t.Fatalf("stale link cost %d dials, want 1", d)
	}
	if after["peer.reused"] != before["peer.reused"] {
		t.Fatalf("the stale link was counted as a reuse: %d -> %d", before["peer.reused"], after["peer.reused"])
	}
	if after["peer.retries"] != 0 || after["peer.errors"] != 0 {
		t.Fatalf("restarted peer cost retries=%d errors=%d, want 0 and 0", after["peer.retries"], after["peer.errors"])
	}
}

// TestClusterLinksConcurrent: 8 clients of one node issue PULLC and
// QWINC at once. Every answer to the same query is byte-identical, the
// free lists never hold more than their cap, and the link counters
// account for every remote read.
func TestClusterLinksConcurrent(t *testing.T) {
	windowed := func(s *Server) { s.SetWindow(window.Ladder{Fan: 4, Levels: 2}, time.Hour) }
	addrs, _, stop := startPeerClusterWith(t, 3, 2*time.Second, 0, windowed)
	defer stop()
	for i, c := range dialAll(t, addrs) {
		pushMG(t, c, "cc", uint64(i), 10*uint64(i+1))
	}

	const clients, rounds = 8, 25
	pulled := make([][]byte, clients)
	ranged := make([][]byte, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c, err := Dial(addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, p, err := c.PullClusterFrame("cc")
				if err != nil {
					t.Errorf("client %d PULLC %d: %v", g, i, err)
					return
				}
				_, r, err := c.QueryWindowClusterFrame("cc", 0, 0)
				if err != nil {
					t.Errorf("client %d QWINC %d: %v", g, i, err)
					return
				}
				if i > 0 && !(bytes.Equal(p, pulled[g]) && bytes.Equal(r, ranged[g])) {
					t.Errorf("client %d: answer %d differs from its previous one", g, i)
					return
				}
				pulled[g], ranged[g] = p, r
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < clients; g++ {
		if !bytes.Equal(pulled[g], pulled[0]) || !bytes.Equal(ranged[g], ranged[0]) {
			t.Fatalf("client %d's answers differ from client 0's", g)
		}
	}

	m := metricsOf(t, addrs[0])
	if idle := m["peer.idle"]; idle == 0 || idle > 2*maxIdleLinks {
		t.Fatalf("peer.idle = %d, want 1..%d (cap %d per remote member)", idle, 2*maxIdleLinks, maxIdleLinks)
	}
	if want := uint64(2 * clients * rounds); m["peer.fanouts"] != want {
		t.Fatalf("peer.fanouts = %d, want %d", m["peer.fanouts"], want)
	}
	if got, want := m["peer.dials"]+m["peer.reused"], 2*m["peer.fanouts"]; got != want {
		t.Fatalf("peer.dials %d + peer.reused %d = %d, want one per remote read = %d", m["peer.dials"], m["peer.reused"], got, want)
	}
	if m["peer.errors"] != 0 {
		t.Fatalf("peer.errors = %d", m["peer.errors"])
	}
}

// TestClusterStopOneAtATime is the benchmark's teardown order: three
// nodes that hold idle links on each other are stopped one after the
// other — Close, then wait for Serve — while clients are still
// connected. Each node must hang up what it holds rather than wait for
// a neighbour or a client to go first.
func TestClusterStopOneAtATime(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	addrs := make([]string, n)
	done := make([]chan error, n)
	for i := range servers {
		servers[i] = New()
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	for i, s := range servers {
		if err := s.SetPeers(addrs[i], addrs, 2*time.Second, 0); err != nil {
			t.Fatal(err)
		}
		done[i] = make(chan error, 1)
		go func() { done[i] <- s.Serve() }()
	}
	conns := dialAll(t, addrs) // stay open throughout
	for i, c := range conns {
		pushMG(t, c, "td", uint64(i), 1)
	}
	for i, c := range conns {
		var got mg.Summary
		if _, err := decoded(&got)(c.PullClusterFrame("td")); err != nil || got.N() != n {
			t.Fatalf("PULLC via node %d: n=%d err=%v", i, got.N(), err)
		}
	}
	for i, c := range conns {
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		// Two peers' idle links and the client.
		if m["conns.open"] != n || m["peer.idle"] != n-1 {
			t.Fatalf("node %d before teardown: conns.open = %d, peer.idle = %d, want %d and %d", i, m["conns.open"], m["peer.idle"], n, n-1)
		}
	}
	for i, s := range servers {
		s.Close()
		select {
		case err := <-done[i]:
			if err != nil {
				t.Errorf("node %d Serve: %v", i, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("node %d: Serve still running 1s after Close: it is waiting for someone else to hang up", i)
		}
	}
}

// TestClientReadHostileLength: a peer declaring a 16 MiB reply and
// sending 10 bytes costs the reader those 10 bytes' worth of buffer,
// not 16 MiB per fan-in member.
func TestClientReadHostileLength(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		conn.Read(buf) // the PULL line
		fmt.Fprintf(conn, "OK mg %d\n0123456789", maxFrame)
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, frame, err := c.PullFrame("x")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a 10-byte reply passed for a %d-byte frame (%d bytes returned)", maxFrame, len(frame))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameChunk {
		t.Fatalf("reading a short reply behind a %d-byte header allocated %d bytes", maxFrame, grew)
	}
}

// TestClientStatusLineIsBounded: a peer answering with bytes and no
// newline costs the reader one buffer, not everything it streams until
// the deadline — a PULLC fan-in reads every member's reply this way.
// The overlong line is a transport error: the link is hung up, not put
// back on the free list.
func TestClientStatusLineIsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	junk := bytes.Repeat([]byte{'x'}, 1<<20)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 64)
				conn.Read(buf) // the PULL line
				conn.Write(junk)
			}()
		}
	}()

	c, err := DialTimeout(ln.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, frame, err := c.PullFrame("x")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("1 MiB without a newline passed for a status line (%d bytes returned)", len(frame))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameChunk {
		t.Fatalf("reading 1 MiB without a newline allocated %d bytes", grew)
	}

	l := &links{addr: ln.Addr().String()}
	defer l.close()
	err = l.do(10*time.Second, func(c *Client) error {
		_, _, e := c.PullFrame("x")
		return e
	})
	if !errors.Is(err, errLineTooLong) {
		t.Fatalf("links.do over an unterminated reply: %v, want %v", err, errLineTooLong)
	}
	if n := l.idleCount(); n != 0 {
		t.Fatalf("the link that read an unterminated reply went back on the free list (%d idle)", n)
	}
}

// TestPullClusterAllocs pins what a PULLC over kept links allocates in
// the whole process: the command, its two peer reads (their requests,
// the peers' replies, the frames read back) and the reduce of three
// frames, on a 3-node cluster. The value is the measured one; it was 25
// when the fan-in started a goroutine per peer and every command line
// was parsed into strings, and 10 while each peer reply's kind name was
// copied into a new string. Skipped under -race: see raceEnabled.
func TestPullClusterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: pooled scratch is sometimes made anew")
	}
	addrs, servers, stop := startPeerCluster(t, 3, 2*time.Second, 1)
	defer stop()
	for i, c := range dialAll(t, addrs) {
		pushMG(t, c, "hot", uint64(i), 10)
	}
	conn := &countConn{}
	line := []byte("PULLC hot\n")
	pullc := func() {
		conn.script(line)
		servers[0].handle(conn)
	}
	pullc() // dials both peers
	const pinned = 8
	if got := testing.AllocsPerRun(200, pullc); got > pinned {
		t.Errorf("PULLC over kept links: %v allocs, want <= %d", got, pinned)
	} else {
		t.Logf("PULLC over kept links: %v allocs", got)
	}
	if !bytes.HasPrefix(conn.out.Bytes(), []byte("OK mg ")) {
		t.Fatalf("PULLC reply %q", conn.out.Bytes())
	}
}
