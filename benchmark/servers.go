package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
)

// liveServer is an in-process summaryd on an ephemeral loopback port,
// in its default configuration unless the workload says otherwise.
type liveServer struct {
	*server.Server
	addr    string
	done    chan error
	serving bool
}

// listen binds a new server; configure it (SetWindow, SetPeers), then
// call serve.
func listen() (*liveServer, error) {
	s := server.New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	return &liveServer{Server: s, addr: addr, done: make(chan error, 1)}, nil
}

func (ls *liveServer) serve() {
	ls.serving = true
	go func() { ls.done <- ls.Serve() }()
}

// stop closes the server and waits for Serve to return, which it does
// once every connection handler has exited — so hang up clients first.
func (ls *liveServer) stop() {
	ls.Close()
	if ls.serving {
		<-ls.done
	}
}

// nodeClient is one client's end of a single-node workload: its
// connection, and the slots it writes with the tally of each.
type nodeClient struct {
	conn    *server.Client
	slots   []string
	tallies []*tally
}

// oneNode is what the single-node workloads share: one live server, the
// shadow node the traced round replays on, and the clients' ends.
type oneNode struct {
	srv    *liveServer
	shadow *server.Node
	ends   [clients]*nodeClient
}

// start brings the server up and connects every client.
func (n *oneNode) start() error {
	srv, err := listen()
	if err != nil {
		return err
	}
	n.srv, n.shadow = srv, server.NewNode()
	srv.serve()
	for _, e := range n.ends {
		if e.conn, err = server.Dial(srv.addr); err != nil {
			return err
		}
	}
	return nil
}

func (n *oneNode) merges() uint64 { return mergesOf(n.srv.Node) }

// beginRound drops every slot on the server and its shadow and zeroes
// the tallies: every round starts from the same, empty, state.
func (n *oneNode) beginRound(bool) error {
	for _, e := range n.ends {
		for i, slot := range e.slots {
			n.srv.Reset(slot)
			n.shadow.Reset(slot)
			e.tallies[i].reset()
		}
	}
	return nil
}

// verify checks every slot of every client: weight conserved, and the
// five bounded-error families within their guarantees.
func (n *oneNode) verify() (float64, error) {
	var worst float64
	for _, e := range n.ends {
		for i, slot := range e.slots {
			ratio, err := checkSlot(e.conn, slot, e.tallies[i])
			if err != nil {
				return 0, err
			}
			worst = max(worst, ratio)
		}
	}
	return worst, nil
}

func (n *oneNode) close() {
	for _, e := range n.ends {
		if e != nil && e.conn != nil {
			e.conn.Close()
		}
	}
	if n.srv != nil {
		n.srv.stop()
	}
}

// mergesOf sums a node's per-kind merge counters.
func mergesOf(n *server.Node) uint64 {
	var total uint64
	for _, ks := range n.Stats() {
		total += ks.Merges
	}
	return total
}

// peerTimeout bounds a peer read or a cluster-client call; generous,
// because nothing in these workloads is supposed to time out.
const peerTimeout = 2 * time.Second

// shadowPush replays, on the shadow node, the public calls cmdPush
// makes once it holds the frame: resolve the family, borrow a scratch
// summary, decode into it, ingest. Each is a shadow child of the wire
// call whose interval they divide. With a nil trace it is simply a push
// without the wire.
//
// Node.Ingest takes ownership of the scratch summary — it installs or
// recycles it, as for cmdPush — which the pool-lifetime analyzer cannot
// see across packages:
//
//sketch:poollife-ok
func shadowPush(tr *clientTrace, call int32, shadow *server.Node, slot string, fam *family, frame []byte) error {
	s := tr.begin("registry.decode", call, true)
	ent, _ := registry.ByName(fam.name)
	sc := ent.GetScratch()
	err := ent.DecodeInto(sc, frame)
	tr.end(s)
	if err != nil {
		ent.PutScratch(sc)
		return err
	}
	s = tr.begin("node.ingest", call, true)
	_, err = shadow.Ingest(slot, ent, sc)
	tr.end(s)
	return err
}

// shadowPushBatch is shadowPush for cmdPushBatch: decode every frame,
// then one IngestBatch.
func shadowPushBatch(tr *clientTrace, call int32, shadow *server.Node, slot string, fam *family, frames []rawFrame) {
	s := tr.begin("registry.decode", call, true)
	ent, _ := registry.ByName(fam.name)
	decoded := make([]any, len(frames))
	var err error
	for i, f := range frames {
		decoded[i] = ent.GetScratch()
		if err = ent.DecodeInto(decoded[i], f); err != nil {
			break
		}
	}
	tr.end(s)
	if err != nil {
		return
	}
	s = tr.begin("node.ingest_batch", call, true)
	_, _ = shadow.IngestBatch(slot, ent, decoded, 1)
	tr.end(s)
}

// shadowPull replays cmdPull's one call. The shadow slot has seen the
// same pushes and the same reads, so its snapshot cache hits and
// misses exactly when the real one did.
func shadowPull(tr *clientTrace, call int32, shadow *server.Node, slot string) {
	s := tr.begin("node.encoded", call, true)
	_, _, _ = shadow.Encoded(slot)
	tr.end(s)
}

// frameN decodes a frame of any family and returns its weight.
func frameN(frame []byte) (uint64, error) {
	ent, err := registry.FromFrame(frame)
	if err != nil {
		return 0, err
	}
	s, err := ent.Decode(frame)
	if err != nil {
		return 0, err
	}
	return ent.N(s), nil
}

// checkSlot pulls a slot's final state and runs its tally's checks:
// weight conserved, error within the family's guarantee.
func checkSlot(conn *server.Client, slot string, t *tally) (float64, error) {
	_, frame, err := conn.PullFrame(slot)
	if err != nil {
		return 0, fmt.Errorf("PULL %s: %w", slot, err)
	}
	ratio, err := t.errOverBound(frame)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", slot, err)
	}
	return ratio, nil
}

// scriptHasher folds the generated inputs into one number, so that two
// runs can be shown to have executed the same script.
type scriptHasher struct{ h uint64 }

func newScriptHasher() *scriptHasher { return &scriptHasher{h: 14695981039346656037} }

func (sh *scriptHasher) bytes(b []byte) {
	f := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], sh.h)
	f.Write(seed[:])
	f.Write(b)
	sh.h = f.Sum64()
}

func (sh *scriptHasher) ints(xs ...int) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		sh.bytes(buf[:])
	}
}
