package server

import (
	"bufio"
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/registry"
)

// startPeerCluster starts n peer-mode servers sharing one member
// list, returning the list (peer order) and the live servers.
func startPeerCluster(t *testing.T, n int, timeout time.Duration, retries int) ([]string, []*Server, func()) {
	t.Helper()
	return startPeerClusterWith(t, n, timeout, retries, func(*Server) {})
}

// startPeerClusterWith is startPeerCluster with every server passed
// through configure (SetWindow, …) before it serves.
func startPeerClusterWith(t *testing.T, n int, timeout time.Duration, retries int, configure func(*Server)) ([]string, []*Server, func()) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		servers[i] = New()
		configure(servers[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	done := make(chan error, n)
	for i, s := range servers {
		if err := s.SetPeers(addrs[i], addrs, timeout, retries); err != nil {
			t.Fatal(err)
		}
		go func(s *Server) { done <- s.Serve() }(s)
	}
	return addrs, servers, func() {
		for _, s := range servers {
			s.Close()
		}
		for range servers {
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		}
	}
}

// TestClusterFanInAllKinds is the registry-enumerated cluster
// equivalence gate: for every family, a stream sharded over a 3-node
// star must answer a cluster-wide PULLC identically from every node,
// byte-for-byte, and that answer must summarize exactly the stream a
// single node ingesting everything summarizes — exact total weight
// always, exact bytes for families whose folds are shape-insensitive
// (classified empirically, as the window metamorphic gate does).
func TestClusterFanInAllKinds(t *testing.T) {
	addrs, _, stop := startPeerCluster(t, 3, 2*time.Second, 1)
	defer stop()

	conns := make([]*Client, len(addrs))
	for i, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}

	// A single reference server ingesting the whole stream.
	refAddr, refStop := startServer(t)
	defer refStop()
	ref, err := Dial(refAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, ent := range registry.Entries() {
		ent := ent
		t.Run(ent.Name(), func(t *testing.T) {
			sizes := []int{400, 35, 220, 90, 150, 12, 310, 64, 500}
			frames := make([][]byte, len(sizes))
			for i, n := range sizes {
				f, err := ent.Encode(ent.Example(n))
				if err != nil {
					t.Fatal(err)
				}
				frames[i] = f
			}
			slot := "cl-" + ent.Name()

			// Star sharding: node i gets every third frame, in order;
			// the reference node gets everything in the same order.
			var wantN uint64
			for i, f := range frames {
				if _, err := conns[i%3].Push(slot, ent.Name(), rawSummary(f)); err != nil {
					t.Fatalf("shard push: %v", err)
				}
				n, err := ref.Push(slot, ent.Name(), rawSummary(f))
				if err != nil {
					t.Fatalf("reference push: %v", err)
				}
				wantN = n
			}

			// The simulated fan-in every node should reproduce: each
			// node's PULL partial, in peer-list order, through the same
			// reduction.
			var partials [][]byte
			for _, c := range conns {
				_, f, err := c.PullFrame(slot)
				if err != nil {
					t.Fatalf("partial PULL: %v", err)
				}
				partials = append(partials, f)
			}
			_, wantFanIn, err := cluster.ReduceEncoded(partials)
			if err != nil {
				t.Fatalf("simulated fan-in: %v", err)
			}

			// Every node answers the cluster-wide PULLC identically.
			var answers [][]byte
			for i, c := range conns {
				kind, f, err := c.PullClusterFrame(slot)
				if err != nil {
					t.Fatalf("PULLC via node %d: %v", i, err)
				}
				if kind != ent.Name() {
					t.Fatalf("PULLC kind = %q, want %q", kind, ent.Name())
				}
				answers = append(answers, f)
			}
			for i, f := range answers {
				if !bytes.Equal(f, answers[0]) {
					t.Fatalf("node %d's PULLC differs from node 0's (%d vs %d bytes): fan-in is not node-independent",
						i, len(f), len(answers[0]))
				}
			}
			if !bytes.Equal(answers[0], wantFanIn) {
				t.Fatalf("PULLC differs from the simulated peer-order fan-in (%d vs %d bytes)",
					len(answers[0]), len(wantFanIn))
			}

			// Cluster answer vs single-node ingestion: weight always.
			dec, err := ent.Decode(answers[0])
			if err != nil {
				t.Fatal(err)
			}
			if gn := ent.N(dec); gn != wantN {
				t.Fatalf("cluster N = %d, single-node N = %d", gn, wantN)
			}

			// Classify the family's fold-shape sensitivity empirically
			// (sequential vs pairing vs node-grouped with codec
			// roundtrips); only an insensitive family owes byte equality
			// with the single-node answer.
			seq, err := ent.Decode(frames[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames[1:] {
				src, err := ent.Decode(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := ent.Merge(seq, src); err != nil {
					t.Fatal(err)
				}
			}
			seqFrame, err := ent.Encode(seq)
			if err != nil {
				t.Fatal(err)
			}
			pairParts := make([]any, len(frames))
			for i, f := range frames {
				if pairParts[i], err = ent.Decode(f); err != nil {
					t.Fatal(err)
				}
			}
			paired, err := mergetree.Parallel(pairParts, 1, ent.Merge)
			if err != nil {
				t.Fatal(err)
			}
			pairFrame, err := ent.Encode(paired)
			if err != nil {
				t.Fatal(err)
			}
			insensitive := bytes.Equal(seqFrame, pairFrame) && bytes.Equal(seqFrame, wantFanIn)

			_, refFrame, err := ref.PullFrame(slot)
			if err != nil {
				t.Fatal(err)
			}
			if insensitive && !bytes.Equal(answers[0], refFrame) {
				t.Fatalf("fold-shape-insensitive family: cluster answer differs from single-node answer (%d vs %d bytes)",
					len(answers[0]), len(refFrame))
			}
		})
	}
}

// TestClusterClientRouting: the consistent-hash router sends every
// push of a slot to one owning node — checked against each node's
// STAT — and PullAllFrame reassembles the cluster view of any slot from
// any mix of nodes.
func TestClusterClientRouting(t *testing.T) {
	addrs, _, stop := startPeerCluster(t, 3, 2*time.Second, 1)
	defer stop()

	cc, err := DialCluster(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	const slots = 24
	for i := 0; i < slots; i++ {
		slot := fmt.Sprintf("route-%d", i)
		s := mg.New(16)
		s.Update(core.Item(i), 10)
		if _, err := cc.Push(slot, "mg", s); err != nil {
			t.Fatalf("routed push: %v", err)
		}
	}

	// Each slot must exist on exactly its ring owner.
	holds := make(map[string]string) // slot → node addr
	for _, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Stat()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if prev, dup := holds[r.Name]; dup {
				t.Fatalf("slot %q present on both %s and %s", r.Name, prev, addr)
			}
			holds[r.Name] = addr
		}
	}
	if len(holds) != slots {
		t.Fatalf("%d slots materialized, want %d", len(holds), slots)
	}
	for slot, addr := range holds {
		if want := cc.Owner(slot); addr != want {
			t.Fatalf("slot %q landed on %s, ring owner is %s", slot, addr, want)
		}
	}

	// PullAllFrame finds each slot wherever it lives.
	for i := 0; i < slots; i++ {
		slot := fmt.Sprintf("route-%d", i)
		var got mg.Summary
		if _, err := decoded(&got)(cc.PullAllFrame(slot)); err != nil {
			t.Fatalf("PullAllFrame(%q): %v", slot, err)
		}
		if got.N() != 10 {
			t.Fatalf("PullAllFrame(%q) N = %d, want 10", slot, got.N())
		}
	}

	// A star-sharded slot: PullAllFrame equals the server-side PULLC.
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		s := mg.New(16)
		s.Update(core.Item(100+i), 5)
		if _, err := c.Push("starred", "mg", s); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	_, clientFrame, err := cc.PullAllFrame("starred")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, serverFrame, err := c.PullClusterFrame("starred")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clientFrame, serverFrame) {
		t.Fatalf("client-side PullAllFrame and server-side PULLC disagree (%d vs %d bytes)",
			len(clientFrame), len(serverFrame))
	}
}

// wedgingPeer is a stand-in peer that answers every PULL with frame
// until wedge is called, and from then on accepts connections and reads
// requests — on old connections and new ones — but never replies: the
// shape of a wedged peer, which only a deadline can unstick.
func wedgingPeer(t *testing.T, frame []byte) (addr string, wedge, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	var wedged atomic.Bool
	serve := func(conn net.Conn) {
		defer wg.Done()
		r := bufio.NewReader(conn)
		for {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if !wedged.Load() {
				fmt.Fprintf(conn, "OK mg %d\n%s", len(frame), frame)
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String(), func() { wedged.Store(true) }, func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// TestClusterPartialResultOnHungPeer: a fan-in spanning a peer that
// accepts but never answers must come back within the timeout budget
// as a partial-result error naming the hung peer — never a hang,
// never a silent short answer — whether the peer is reached by a fresh
// dial or through a pooled link that worked a moment ago.
func TestClusterPartialResultOnHungPeer(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		name := "fresh dial"
		if pooled {
			name = "pooled link"
		}
		t.Run(name, func(t *testing.T) { testPartialResultOnHungPeer(t, pooled) })
	}
}

func testPartialResultOnHungPeer(t *testing.T, pooled bool) {
	peerSum := mg.New(16)
	peerSum.Update(2, 5)
	peerFrame, err := peerSum.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hungAddr, wedge, stopHung := wedgingPeer(t, peerFrame)
	defer stopHung()

	const timeout = 150 * time.Millisecond
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerList := []string{addr, hungAddr}
	s.SetPeers(addr, peerList, timeout, 0)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum := mg.New(16)
	sum.Update(1, 7)
	if _, err := c.Push("pq", "mg", sum); err != nil {
		t.Fatal(err)
	}

	if pooled {
		// One good fan-in leaves an idle link to the peer behind; the
		// read below goes out on it.
		var got mg.Summary
		if _, err := decoded(&got)(c.PullClusterFrame("pq")); err != nil || got.N() != 12 {
			t.Fatalf("fan-in before the peer wedged: n=%d err=%v", got.N(), err)
		}
		if m, err := c.Metrics(); err != nil || m["peer.idle"] != 1 {
			t.Fatalf("peer.idle = %d (err %v) after a good fan-in, want 1", m["peer.idle"], err)
		}
	}
	wedge()

	start := time.Now()
	_, _, err = c.PullClusterFrame("pq")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fan-in over a hung peer succeeded")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want a server ERR reply, got %v", err)
	}
	if !strings.Contains(re.Msg, "partial result") || !strings.Contains(re.Msg, hungAddr) {
		t.Fatalf("partial-result error does not name the hung peer: %q", re.Msg)
	}
	if !strings.Contains(re.Msg, "1/2 peers ok") {
		t.Fatalf("partial-result error miscounts: %q", re.Msg)
	}
	// The documented bound: (retries+1)·timeout, dial included — one
	// attempt at 150ms here — plus scheduling slack.
	if bound := timeout + 250*time.Millisecond; elapsed > bound {
		t.Fatalf("fan-in over a hung peer took %v, want <= %v: the per-attempt deadline is not cutting it off", elapsed, bound)
	}

	// The same slot is still answerable node-locally.
	var got mg.Summary
	if _, err := decoded(&got)(c.PullFrame("pq")); err != nil || got.N() != 7 {
		t.Fatalf("local PULL after failed fan-in: n=%d err=%v", got.N(), err)
	}

	// And the failure shows up in the fan-out counters.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["peer.fanouts"] == 0 || m["peer.errors"] == 0 {
		t.Fatalf("fan-out counters missed the failure: %v", m)
	}
	// The link that timed out was hung up, not put back.
	if m["peer.idle"] != 0 {
		t.Fatalf("peer.idle = %d after a timed-out read, want 0", m["peer.idle"])
	}
}

// TestClusterDeadPeerPartialResult: a peer whose port is closed fails
// fast (connection refused) and the fan-in reports it the same way.
func TestClusterDeadPeerPartialResult(t *testing.T) {
	// Reserve an address, then close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const timeout, retries = 200 * time.Millisecond, 1
	s.SetPeers(addr, []string{addr, deadAddr}, timeout, retries)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum := mg.New(16)
	sum.Update(2, 3)
	if _, err := c.Push("dq", "mg", sum); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = c.PullClusterFrame("dq")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "partial result") {
		t.Fatalf("want partial-result error, got %v", err)
	}
	// Refused connections fail in microseconds; even if every attempt
	// ran its deadline out the read is bounded by (retries+1)·timeout.
	if bound := (retries+1)*timeout + 250*time.Millisecond; elapsed > bound {
		t.Fatalf("fan-in over a dead peer took %v, want <= %v", elapsed, bound)
	}

	// The retry was attempted and counted.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["peer.retries"] == 0 {
		t.Fatalf("dead peer read was not retried: %v", m)
	}
}

// TestClusterFanInSkipsEmptyPeers: peers that never saw the slot
// contribute nothing instead of failing the fan-in; a slot no peer
// holds is reported with the canonical missing-slot error.
func TestClusterFanInSkipsEmptyPeers(t *testing.T) {
	addrs, _, stop := startPeerCluster(t, 3, 2*time.Second, 1)
	defer stop()

	c0, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	sum := mg.New(16)
	sum.Update(9, 42)
	if _, err := c0.Push("lone", "mg", sum); err != nil {
		t.Fatal(err)
	}

	// Ask a node that does NOT hold the slot: the answer comes from the
	// one peer that does.
	c1, err := Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	var got mg.Summary
	if _, err := decoded(&got)(c1.PullClusterFrame("lone")); err != nil {
		t.Fatal(err)
	}
	if got.N() != 42 {
		t.Fatalf("fan-in over one holding peer: N = %d, want 42", got.N())
	}

	if _, _, err := c1.PullClusterFrame("nowhere"); err == nil || !strings.Contains(err.Error(), `no such slot "nowhere"`) {
		t.Fatalf("cluster-wide missing slot: got %v", err)
	}
}

// TestMetricsCounters: METRICS serves the per-kind push/pull/merge
// counters and they add up against a known little workload.
func TestMetricsCounters(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sum := mg.New(16)
	sum.Update(1, 1)
	if _, err := c.Push("m1", "mg", sum); err != nil {
		t.Fatal(err)
	}
	batch := []encoding.BinaryMarshaler{sum, sum, sum}
	if _, err := c.PushBatch("m1", "mg", batch); err != nil {
		t.Fatal(err)
	}
	var out mg.Summary
	if _, err := decoded(&out)(c.PullFrame("m1")); err != nil {
		t.Fatal(err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["kind.push.mg"] != 4 {
		t.Fatalf("kind.push.mg = %d, want 4", m["kind.push.mg"])
	}
	if m["kind.pull.mg"] != 1 {
		t.Fatalf("kind.pull.mg = %d, want 1", m["kind.pull.mg"])
	}
	// First push adopts, the three batched frames merge.
	if m["kind.merge.mg"] != 3 {
		t.Fatalf("kind.merge.mg = %d, want 3", m["kind.merge.mg"])
	}
	// Conservation: every frame a reply acknowledged was installed into
	// a slot (one slot here) or merged on its way there; nothing a reply
	// acknowledged is dropped later, so there is no drop row.
	if got := m["kind.merge.mg"] + 1; got != m["kind.push.mg"] {
		t.Fatalf("kind.merge.mg + installed = %d, want kind.push.mg = %d", got, m["kind.push.mg"])
	}
	for name := range m {
		if strings.HasPrefix(name, "kind.drop.") {
			t.Fatalf("METRICS serves %s: no write is acknowledged and then dropped", name)
		}
	}
	// No peers, no windows: those groups are absent entirely.
	if _, ok := m["peer.count"]; ok {
		t.Fatal("peer metrics served outside peer mode")
	}
	if _, ok := m["window.epoch"]; ok {
		t.Fatal("window metrics served outside windowed mode")
	}
	// This connection is the only one open.
	if m["conns.open"] != 1 {
		t.Fatalf("conns.open = %d, want 1", m["conns.open"])
	}

	// Peer mode: the fan-out counters obey their conservation laws over
	// a cluster of this node, a live peer and a dead address — every
	// fan-in accounts for every member, and every attempt at a remote
	// member either dialed or rode an idle link.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	s := New()
	self, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPeers(self, []string{self, addr, deadAddr}, 2*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	pc, err := Dial(self)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const fanIns = 5
	for i := 0; i < fanIns; i++ {
		if _, _, err := pc.PullClusterFrame("m1"); err == nil || !strings.Contains(err.Error(), "2/3 peers ok") {
			t.Fatalf("fan-in over a dead member: %v", err)
		}
	}
	pm, err := pc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if pm["peer.fanouts"] != fanIns || pm["peer.count"] != 3 {
		t.Fatalf("peer.fanouts = %d, peer.count = %d, want %d and 3", pm["peer.fanouts"], pm["peer.count"], fanIns)
	}
	if got, want := pm["peer.ok"]+pm["peer.errors"], pm["peer.fanouts"]*pm["peer.count"]; got != want {
		t.Fatalf("peer.ok %d + peer.errors %d = %d, want fanouts x count = %d", pm["peer.ok"], pm["peer.errors"], got, want)
	}
	// Remote attempts: one per remote member per fan-in, plus retries.
	attempts := pm["peer.fanouts"]*(pm["peer.count"]-1) + pm["peer.retries"]
	if got := pm["peer.dials"] + pm["peer.reused"]; got != attempts {
		t.Fatalf("peer.dials %d + peer.reused %d = %d, want remote attempts = %d", pm["peer.dials"], pm["peer.reused"], got, attempts)
	}
	// The live peer was dialed once and reused since; the dead one is
	// dialed on every attempt and never pooled.
	if pm["peer.reused"] != fanIns-1 || pm["peer.idle"] != 1 {
		t.Fatalf("peer.reused = %d, peer.idle = %d, want %d and 1", pm["peer.reused"], pm["peer.idle"], fanIns-1)
	}
}
