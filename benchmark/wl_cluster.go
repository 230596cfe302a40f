package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// cluster_small: three peer-mode nodes, the smallest frame. Per-message
// cost (frame read → CRC/decode → slot lock → merge → reply) and the
// fan-in path (dial → peer read → reduce → encode) dominate; the
// summaries themselves cost next to nothing.
const (
	clusterNodes     = 3
	clusterSlots     = 16   // fleet/<c>/<j>
	clusterPool      = 256  // distinct heartbeat frames per client
	clusterChunkLen  = 1024 // records summarised into one heartbeat
	clusterReadEvery = 32   // one read after every 32nd write
	// clusterWrites is the frozen per-client, per-round write count.
	clusterWrites = 43200
)

var clusterWorkload = workload{
	name:  "cluster_small",
	why:   "3 peer nodes, ~190 B mg heartbeats on persistent connections, 1 fan-in read (PULLC 3:1 PullAll) per 32 writes: per-message wire cost and dial-per-peer fan-in dominate; summaries cost nothing",
	setup: setupCluster,
}

type clusterClientState struct {
	conns       [clusterNodes]*server.Client
	cc          *server.ClusterClient
	chunks      []*chunk
	frames      []rawFrame
	slots       [clusterSlots]string
	shadowSlots [clusterNodes][clusterSlots]string
	tallies     [clusterSlots]*tally
}

type clusterInst struct {
	nodes  [clusterNodes]*liveServer
	addrs  []string
	shadow *server.Node
	cl     [clients]*clusterClientState
	writes int
	hash   uint64
}

func setupCluster(seed uint64, div int) (instance, error) {
	in := &clusterInst{shadow: server.NewNode(), writes: scaled(clusterWrites, div, clusterNodes*clusterReadEvery)}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	for i := range in.nodes {
		ls, err := listen()
		if err != nil {
			return nil, err
		}
		in.nodes[i] = ls
		in.addrs = append(in.addrs, ls.addr)
	}
	for _, ls := range in.nodes {
		ls.SetPeers(ls.addr, in.addrs, peerTimeout, 1)
		ls.serve()
	}
	mgFam := familyByName("mg")
	sh := newScriptHasher()
	sh.ints(in.writes, clusterReadEvery, clusterSlots)
	for c := range in.cl {
		st := &clusterClientState{}
		in.cl[c] = st
		src := newChunkSource(4096, seed*1000+uint64(c))
		for i := 0; i < clusterPool; i++ {
			ch := src.draw(clusterChunkLen)
			frame, err := mgFam.summarize(tiny, 0, ch)
			if err != nil {
				return nil, err
			}
			st.chunks = append(st.chunks, ch)
			st.frames = append(st.frames, frame)
			sh.bytes(frame)
		}
		for j := range st.slots {
			st.slots[j] = fmt.Sprintf("fleet/%d/%d", c, j)
			st.tallies[j] = newTally(mgFam, tiny, st.chunks)
			for nd := range st.shadowSlots {
				st.shadowSlots[nd][j] = fmt.Sprintf("%d:%s", nd, st.slots[j])
			}
		}
		for nd, addr := range in.addrs {
			conn, err := server.Dial(addr)
			if err != nil {
				return nil, fmt.Errorf("dialing node %d: %w", nd, err)
			}
			st.conns[nd] = conn
		}
		cc, err := server.DialCluster(in.addrs, peerTimeout)
		if err != nil {
			return nil, err
		}
		st.cc = cc
	}
	in.hash = sh.h
	// Preload: a quarter of a round.
	if err := in.beginRound(false); err != nil {
		return nil, err
	}
	warm := scaled(in.writes/4, 1, clusterNodes*clusterReadEvery)
	if err := preload(func(c int, rec *clientRec) { in.script(c, rec, warm) }); err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

func (in *clusterInst) opsPerClient() (int, int) { return in.writes, in.writes / clusterReadEvery }
func (in *clusterInst) scriptHash() uint64       { return in.hash }

func (in *clusterInst) merges() uint64 {
	var total uint64
	for _, ls := range in.nodes {
		total += mergesOf(ls.Node)
	}
	return total
}

func (in *clusterInst) beginRound(bool) error {
	for _, st := range in.cl {
		for j, slot := range st.slots {
			for nd, ls := range in.nodes {
				ls.Reset(slot)
				in.shadow.Reset(st.shadowSlots[nd][j])
			}
			st.tallies[j].reset()
		}
	}
	return nil
}

func (in *clusterInst) runClient(c int, rec *clientRec) { in.script(c, rec, in.writes) }

func (in *clusterInst) script(c int, rec *clientRec, writes int) {
	st, tr := in.cl[c], rec.tr
	mgFam := familyByName("mg")
	for i := 0; i < writes; i++ {
		nd, j, f := i%clusterNodes, (i/clusterNodes)%clusterSlots, i%len(st.frames)
		frame := st.frames[f]
		t0 := time.Now()
		_, err := st.conns[nd].Push(st.slots[j], "mg", frame)
		t1 := time.Now()
		rec.write(t0, t1, len(frame), err)
		if err == nil {
			st.tallies[j].add(f)
		}
		if tr != nil {
			root := tr.record("op.push", -1, t0, t1)
			call := tr.record("client.call", root, t0, t1)
			_ = shadowPush(tr, call, in.shadow, st.shadowSlots[nd][j], mgFam, frame)
		}
		if (i+1)%clusterReadEvery != 0 {
			continue
		}
		k := (i + 1) / clusterReadEvery
		if k%4 == 0 {
			t0 = time.Now()
			_, reply, err := st.cc.PullAllFrame(st.slots[j])
			t1 = time.Now()
			rec.read(t0, t1, len(reply), err)
			if tr != nil {
				root := tr.record("op.pullall", -1, t0, t1)
				call := tr.record("client.call", root, t0, t1)
				var frames [][]byte
				for n := range in.nodes {
					s := tr.begin("node.encoded", call, true)
					_, data, err := in.shadow.Encoded(st.shadowSlots[n][j])
					tr.end(s)
					if err == nil {
						frames = append(frames, data)
					}
				}
				s := tr.begin("cluster.reduce", call, true)
				_, _, _ = cluster.ReduceEncoded(frames)
				tr.end(s)
			}
			continue
		}
		at := k % clusterNodes
		t0 = time.Now()
		_, reply, err := st.conns[at].PullClusterFrame(st.slots[j])
		t1 = time.Now()
		rec.read(t0, t1, len(reply), err)
		if tr != nil {
			root := tr.record("op.pullc", -1, t0, t1)
			call := tr.record("client.call", root, t0, t1)
			s := tr.begin("fanout.peer_reads", call, true)
			frames := in.peerReads(at, st.slots[j])
			tr.end(s)
			s = tr.begin("cluster.reduce", call, true)
			_, _, _ = cluster.ReduceEncoded(frames)
			tr.end(s)
		}
	}
}

// peerReads is the harness's copy of what Server.fanIn does for a
// PULLC at node `at`: a fresh dial, PULL and hang-up per peer,
// concurrently, while the local share is read in-process; frames are
// returned in peer-list order.
func (in *clusterInst) peerReads(at int, slot string) [][]byte {
	results := make([][]byte, len(in.nodes))
	var wg sync.WaitGroup
	for nd, addr := range in.addrs {
		if nd == at {
			continue
		}
		wg.Add(1)
		go func(nd int, addr string) {
			defer wg.Done()
			c, err := server.DialTimeout(addr, peerTimeout)
			if err != nil {
				return
			}
			c.SetDeadline(time.Now().Add(peerTimeout))
			_, data, err := c.PullFrame(slot)
			c.Close()
			if err == nil {
				results[nd] = data
			}
		}(nd, addr)
	}
	if _, data, err := in.nodes[at].Encoded(slot); err == nil {
		results[at] = data
	}
	wg.Wait()
	frames := results[:0]
	for _, f := range results {
		if f != nil {
			frames = append(frames, f)
		}
	}
	return frames
}

// verify checks, at quiescence, that every fleet slot's cluster-wide
// answer is byte-identical from all three nodes, agrees in weight with
// the client-side fan-in, conserves the weight pushed, and is within
// the Misra-Gries guarantee.
func (in *clusterInst) verify() (float64, error) {
	var worst float64
	for c, st := range in.cl {
		for j, slot := range st.slots {
			var first []byte
			for nd, conn := range st.conns {
				_, frame, err := conn.PullClusterFrame(slot)
				if err != nil {
					return 0, fmt.Errorf("PULLC %s at node %d: %w", slot, nd, err)
				}
				if nd == 0 {
					first = frame
				} else if !bytes.Equal(first, frame) {
					return 0, fmt.Errorf("PULLC %s differs between node 0 and node %d (%d vs %d bytes)", slot, nd, len(first), len(frame))
				}
			}
			_, all, err := st.cc.PullAllFrame(slot)
			if err != nil {
				return 0, fmt.Errorf("PullAll %s: %w", slot, err)
			}
			nAll, err := frameN(all)
			if err != nil {
				return 0, err
			}
			if nAll != st.tallies[j].n {
				return 0, fmt.Errorf("client %d: PullAll %s holds N=%d, pushed Σ N=%d", c, slot, nAll, st.tallies[j].n)
			}
			ratio, err := st.tallies[j].errOverBound(first)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", slot, err)
			}
			if ratio > worst {
				worst = ratio
			}
		}
	}
	return worst, nil
}

func (in *clusterInst) close() {
	for _, st := range in.cl {
		if st == nil {
			continue
		}
		for _, conn := range st.conns {
			if conn != nil {
				conn.Close()
			}
		}
		if st.cc != nil {
			st.cc.Close()
		}
	}
	for _, ls := range in.nodes {
		if ls != nil {
			ls.stop()
		}
	}
}
