package server

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/registry"
	"repro/internal/window"
)

// foldShapeInsensitive classifies a family empirically, as
// TestClusterFanInAllKinds does: only when the sequential fold, the
// pairing fold and the node-grouped fan-in (with its codec roundtrips)
// of the same frames agree byte for byte does the family owe byte
// equality between a cluster answer and a single node's.
func foldShapeInsensitive(t *testing.T, ent *registry.Entry, frames [][]byte, fanIn []byte) bool {
	t.Helper()
	decode := func(f []byte) any {
		v, err := ent.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	seq := decode(frames[0])
	parts := []any{decode(frames[0])}
	for _, f := range frames[1:] {
		if err := ent.Merge(seq, decode(f)); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, decode(f))
	}
	paired, err := mergetree.Parallel(parts, 1, ent.Merge)
	if err != nil {
		t.Fatal(err)
	}
	seqFrame, err := ent.Encode(seq)
	if err != nil {
		t.Fatal(err)
	}
	pairFrame, err := ent.Encode(paired)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(seqFrame, pairFrame) && bytes.Equal(seqFrame, fanIn)
}

// TestClusterWindowReads covers the cluster-wide half of the read
// plane on a windowed cluster, for every registered family and for
// each shape of read — the whole slot, a sealed epoch range, all
// retained epochs: the server-side fan-in (PULLC / QWINC) answers
// byte-identically from every node, the ClusterClient's client-side
// fan-in (PullAll / QueryWindowAll) computes the same bytes, and both
// equal cluster.ReduceEncoded of the three single-node answers in
// member order. Against a single node that ingested everything: exact
// weight always, exact bytes for fold-shape-insensitive families.
func TestClusterWindowReads(t *testing.T) {
	ladder := window.Ladder{Fan: 4, Levels: 2}
	windowed := func(s *Server) { s.SetWindow(ladder, 0) } // manual epochs
	addrs, servers, stop := startPeerClusterWith(t, 3, 2*time.Second, 1, windowed)
	defer stop()
	refSrv, refAddr, refStop := startWindowedServer(t, ladder, 0)
	defer refStop()

	// Connections hang up before the deferred stops above run: a stopping
	// server waits for its connection handlers.
	var all []*Client
	defer func() {
		for _, c := range all {
			c.Close()
		}
	}()
	for _, addr := range append(addrs[:3:3], refAddr) {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, c)
	}
	conns, ref := all[:3], all[3]
	cc, err := DialCluster(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Four epochs; in each, every node gets one frame of every family
	// and the reference node gets all three, in the same order.
	sizes := [4][3]int{{400, 35, 220}, {90, 150, 12}, {310, 64, 500}, {27, 180, 75}}
	frames := map[string][][]byte{} // family → the 12 frames, epoch-major
	for _, epoch := range sizes {
		for _, ent := range registry.Entries() {
			slot := "cw-" + ent.Name()
			for node, n := range epoch {
				f, err := ent.Encode(ent.Example(n))
				if err != nil {
					t.Fatal(err)
				}
				frames[ent.Name()] = append(frames[ent.Name()], f)
				if _, err := conns[node].Push(slot, ent.Name(), rawSummary(f)); err != nil {
					t.Fatalf("%s shard push: %v", ent.Name(), err)
				}
				if _, err := ref.Push(slot, ent.Name(), rawSummary(f)); err != nil {
					t.Fatalf("%s reference push: %v", ent.Name(), err)
				}
			}
		}
		for _, s := range servers {
			s.AdvanceWindows()
		}
		refSrv.AdvanceWindows()
	}

	type nodeRead func(c *Client, slot string) (string, []byte, error)
	type read struct {
		name                  string
		firstEpoch, lastEpoch int // the epochs the read covers
		node, fanIn           nodeRead
		client                func(cc *ClusterClient, slot string) (string, []byte, error)
	}
	ranged := func(name string, firstEpoch, lastEpoch int, from, to uint64) read {
		return read{name, firstEpoch, lastEpoch,
			func(c *Client, slot string) (string, []byte, error) { return c.QueryWindowFrame(slot, from, to) },
			func(c *Client, slot string) (string, []byte, error) { return c.QueryWindowClusterFrame(slot, from, to) },
			func(cc *ClusterClient, slot string) (string, []byte, error) {
				return cc.QueryWindowAllFrame(slot, from, to)
			},
		}
	}
	reads := []read{
		{"slot", 1, 4, (*Client).PullFrame, (*Client).PullClusterFrame, (*ClusterClient).PullAllFrame},
		ranged("epochs 2-3", 2, 3, 2, 3),
		ranged("all epochs", 1, 4, 0, 0),
	}

	for _, ent := range registry.Entries() {
		slot := "cw-" + ent.Name()
		for _, rd := range reads {
			t.Run(ent.Name()+"/"+rd.name, func(t *testing.T) {
				frame := func(what, kind string, f []byte, err error) []byte {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if kind != ent.Name() {
						t.Fatalf("%s: kind = %q, want %q", what, kind, ent.Name())
					}
					return f
				}
				var partials [][]byte
				for _, c := range conns {
					kind, f, err := rd.node(c, slot)
					partials = append(partials, frame("single-node read", kind, f, err))
				}
				_, want, err := cluster.ReduceEncoded(partials)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range conns {
					kind, f, err := rd.fanIn(c, slot)
					if got := frame("server fan-in", kind, f, err); !bytes.Equal(got, want) {
						t.Fatalf("node %d's fan-in differs from the member-order reduce of the single-node answers (%d vs %d bytes)",
							i, len(got), len(want))
					}
				}
				kind, f, err := rd.client(cc, slot)
				if got := frame("client fan-in", kind, f, err); !bytes.Equal(got, want) {
					t.Fatalf("ClusterClient's fan-in differs from the server's (%d vs %d bytes)", len(got), len(want))
				}

				covered := frames[ent.Name()][3*(rd.firstEpoch-1) : 3*rd.lastEpoch]
				var wantN uint64
				for _, f := range covered {
					v, err := ent.Decode(f)
					if err != nil {
						t.Fatal(err)
					}
					wantN += ent.N(v)
				}
				dec, err := ent.Decode(want)
				if err != nil {
					t.Fatal(err)
				}
				if gn := ent.N(dec); gn != wantN {
					t.Fatalf("cluster N = %d, pushed N = %d", gn, wantN)
				}
				kind, f, err = rd.node(ref, slot)
				refFrame := frame("reference read", kind, f, err)
				if foldShapeInsensitive(t, ent, covered, want) && !bytes.Equal(want, refFrame) {
					t.Fatalf("fold-shape-insensitive family: cluster answer differs from single-node answer (%d vs %d bytes)",
						len(want), len(refFrame))
				}
			})
		}
	}

	// No data: epoch 5 sealed empty everywhere. A slot that exists is
	// not reported missing — both fan-ins name the range instead, in the
	// same words, and IsNoData recognises either.
	for _, s := range servers {
		s.AdvanceWindows()
	}
	_, _, srvErr := conns[1].QueryWindowClusterFrame("cw-mg", 5, 5)
	_, _, cliErr := cc.QueryWindowAllFrame("cw-mg", 5, 5)
	for side, err := range map[string]error{"QWINC": srvErr, "QueryWindowAll": cliErr} {
		if !IsNoData(err) {
			t.Fatalf("%s over an empty range: got %v, want a no-data error", side, err)
		}
		if !strings.Contains(err.Error(), `slot "cw-mg"`) || !strings.Contains(err.Error(), "nothing summarized in [5, 5]") ||
			strings.Contains(err.Error(), "no such slot") {
			t.Fatalf("%s over an empty range: %v", side, err)
		}
	}
	// PULLC's missing-slot text is untouched, on both sides.
	_, _, srvErr = conns[1].PullClusterFrame("nowhere")
	_, _, cliErr = cc.PullAllFrame("nowhere")
	for side, err := range map[string]error{"PULLC": srvErr, "PullAll": cliErr} {
		if !IsNoData(err) || !strings.Contains(err.Error(), `no such slot "nowhere"`) {
			t.Fatalf("%s of a slot nobody holds: %v", side, err)
		}
	}
}

// TestClusterWindowCanonical: a QWINC over a sealed range, asked right
// after the seal that completes a roll-up block on every node — no wait
// and no retry, there is nothing to wait for — is byte-identical from
// every node for all 13 kinds, and is exactly the member-order reduce of
// each node's canonical answer: two loose epochs and that node's block,
// folded from its own four epoch frames.
func TestClusterWindowCanonical(t *testing.T) {
	ladder := window.Ladder{Fan: 4, Levels: 2}
	addrs, servers, stop := startPeerClusterWith(t, 3, 2*time.Second, 1, func(s *Server) { s.SetWindow(ladder, 0) })
	defer stop()
	var conns []*Client
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	// Eight epochs: the last seal closes block [5,8], so [3,8] is two
	// loose epochs and a block nested inside one reduce.
	for epoch := 1; epoch <= 8; epoch++ {
		for _, ent := range registry.Entries() {
			for node, c := range conns {
				f, err := ent.Encode(ent.Example(97*epoch + 211*node + 40))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Push("cc-"+ent.Name(), ent.Name(), rawSummary(f)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, s := range servers {
			s.AdvanceWindows()
		}
	}
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			slot := "cc-" + ent.Name()
			reduce := func(frames ...[]byte) []byte {
				f, err := window.ReduceEncoded(ent, frames)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			var want [][]byte // per node: the canonical answer for [3,8]
			for _, c := range conns {
				var epochs [][]byte // [e, e] is one level-0 piece, returned as sealed
				for e := uint64(3); e <= 8; e++ {
					_, f, err := c.QueryWindowFrame(slot, e, e)
					if err != nil {
						t.Fatal(err)
					}
					epochs = append(epochs, f)
				}
				want = append(want, reduce(epochs[0], epochs[1], reduce(epochs[2:]...)))
			}
			_, canonical, err := cluster.ReduceEncoded(want)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range conns {
				_, got, err := c.QueryWindowClusterFrame(slot, 3, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, canonical) {
					t.Fatalf("node %d answers QWINC [3,8] with %d bytes, the canonical fold has %d", i, len(got), len(canonical))
				}
			}
		})
	}
}

// TestClusterWindowPartialResult: QWINC over a dead peer is the same
// partial-result error PULLC gives, naming the peer.
func TestClusterWindowPartialResult(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	s := New()
	s.SetWindow(window.Ladder{Fan: 4, Levels: 2}, 0)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPeers(addr, []string{addr, deadAddr}, 200*time.Millisecond, 0); err != nil {
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
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushMG(t, c, "wq", 1, 5)
	s.AdvanceWindows()

	_, err = c.QueryWindowCluster("wq", 1, 1, &mg.Summary{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want a server ERR reply, got %v", err)
	}
	if !strings.Contains(re.Msg, "partial result (1/2 peers ok)") || !strings.Contains(re.Msg, "peer "+deadAddr) {
		t.Fatalf("partial-result error does not name the dead peer: %q", re.Msg)
	}
	// The node's own share of the range is still there to read.
	var got mg.Summary
	if _, err := c.QueryWindow("wq", 1, 1, &got); err != nil || got.N() != 5 {
		t.Fatalf("local QWIN after failed fan-in: n=%d err=%v", got.N(), err)
	}
}

// TestSetPeersRejectsUnlistedSelf: a node that is not an entry of its
// own peer list would fan in without its local share and still answer
// OK, so the configuration is refused and peer mode stays off.
func TestSetPeersRejectsUnlistedSelf(t *testing.T) {
	s := New()
	err := s.SetPeers("127.0.0.1:7070", []string{"10.0.0.1:7070", "10.0.0.2:7070"}, time.Second, 0)
	if err == nil || !strings.Contains(err.Error(), `"127.0.0.1:7070"`) {
		t.Fatalf("SetPeers with self missing from the list: err = %v", err)
	}
	if s.Peers() != nil {
		t.Fatalf("peer mode enabled despite the rejected configuration: %v", s.Peers())
	}
	if err := s.SetPeers("10.0.0.2:7070", []string{"10.0.0.1:7070", "10.0.0.2:7070"}, time.Second, 0); err != nil {
		t.Fatalf("SetPeers with self listed: %v", err)
	}
}
