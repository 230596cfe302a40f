// Package server implements a small summary-aggregation service: a
// TCP daemon holding named summary slots that workers PUSH framed
// summaries into (the server merges on arrival) and dashboards PULL
// merged summaries out of. It is the minimal "mergeable summaries as a
// service" deployment the PODS'12 framework enables: the server never
// sees raw data, only constant-size summaries, and any number of
// workers can push in any order.
//
// Protocol (text commands, binary frames):
//
//	PUSH <slot> <kind>\n<frame>   → OK <n>\n            merge frame into slot; n = slot weight acknowledged so far
//	PUSHB <slot> <kind> <count>\n then <count> frames
//	                              → OK <n>\n            PUSH of <count> frames, one round-trip
//	PULL <slot>\n                 → OK <kind> <len>\n<frame>
//	PULLC <slot>\n                → OK <kind> <len>\n<frame>   cluster-wide fan-in
//	QWIN <slot> <from> <to>\n     → OK <kind> <len>\n<frame>
//	QWINC <slot> <from> <to>\n    → OK <kind> <len>\n<frame>   cluster-wide fan-in
//	STAT\n                        → OK <count>\n then "<slot> <kind> <n> <pushes>\n" each, in slot order
//	METRICS\n                     → OK <count>\n then "<name> <value>\n" each
//	RESET <slot>\n                → OK 0\n              drop the slot
//	QUIT\n                        → connection closes
//
// QWIN is the time-travel query: on servers running windowed mode
// (SetWindow), every slot additionally feeds a multi-resolution
// roll-up plane (internal/window.Plane) and QWIN returns the merged
// summary of the epoch range [from, to] — 0 meaning "oldest retained"
// and "through the live epoch" respectively. The reply frame is
// byte-identical in shape to PULL's. Without windowed mode QWIN
// reports an error.
//
// PULLC and QWINC are the cluster fan-in commands: on servers running
// peer mode (SetPeers / summaryd -peers), the node PULLs the slot's
// encoded snapshot from every peer concurrently, reduces the peer
// partials together with its own local state through the registry's
// decode-into-scratch path and mergetree.Parallel (cluster.Reduce),
// and replies with the merged frame — the paper's topology-free merge
// run over the network as a star. Peers missing the slot contribute
// nothing; a peer that cannot be reached within the per-peer timeout
// (after retries) turns the reply into a partial-result error naming
// the failed peers, never a hang. Connections to peers are kept between
// fan-ins — a small free list of idle links per member (links.go) — so
// a cluster read costs a round trip per peer, not a handshake: a link
// goes back on the list only after a clean reply or a server ERR, a
// link found stale (the peer restarted) is replaced by a fresh dial
// within the same attempt and without spending a retry, and a member
// read still costs at most (retries+1)·timeout. The other side of that
// bargain: nodes hold idle inbound connections from their peers, so
// Close hangs up everything the server holds instead of waiting for it,
// and a Shutdown with such links open waits its whole grace period.
//
// All four read commands are one path (read.go):
//
//	query → local answer | gather over the members → reduce → reply
//
// The command line parses into a query value that knows what differs
// between reads (its wire line, its answer on a Node, its no-data
// reply); it is answered from this node's own state or gathered over
// the peer list, reduced, and written by the one frame-reply writer.
// The cluster client's PullAll/QueryWindowAll run the same gather and
// the same reduce client-side, reaching members over the same pooled
// links, and the reduce (cluster.ReduceEncoded) is the window.Reduce
// the roll-up plane folds its segments with. The paper's
// theorem is why one of each suffices: a summary's guarantee survives
// any merge tree, so it cannot matter whether the ladder, a peer or a
// client picked it.
//
// Both write commands are one path too (write.go):
//
//	frames → decode outside any lock → direct or lane → one locked absorb → one reply
//
// Every frame on the wire is preceded by its own "<len>\n" length line,
// and PUSH is PUSHB of one: a single handler reads the frames the
// command line announces (up to MaxBatch behind one PUSHB, one reply for
// all of them, amortizing syscall, parse and slot-lock overhead) into a
// pooled buffer, decodes each into a pooled scratch summary with no lock
// held, and hands them to Node.IngestBatch. From there two mechanisms
// lead to the slot: on a direct node the frames are absorbed under one
// acquisition of the slot lock; on a node running the ingest front
// (SetIngestFront / summaryd -front) every write, single or batched, is
// folded and parked in a per-connection lane and absorbed on the next
// tick or read. Either way a summary enters the slot through the same
// locked step (ingestLocked: install or merge, feed the roll-up plane,
// recycle, count), and the handler's "OK <n>" means one thing: the
// weight acknowledged into the slot so far — the merged slot's N on a
// direct node, the running total of acknowledged pushes on a fronted one,
// which are the same number unless a lane summary could not be absorbed
// at flush time (METRICS counts that as kind.drop.<kind>; 0 on a healthy
// node). Frames preceding a failed merge within a direct batch stay
// merged (the reply reports the error and the failing frame). The client
// mirrors this with one sender behind Push, PushBatch and PushTyped.
//
// Layering: all slot state — the slot table, the epoch-versioned
// snapshot cache, the per-lane ingest front, the roll-up planes and
// the per-kind operation counters — lives on Node (node.go), which has
// no network attached. Server is the wire-protocol shell: it reads
// frames into pooled buffers, decodes them into pooled scratch
// summaries entirely outside any slot lock, and calls the node's
// ingest/read methods; the cluster fan-in reuses the same node methods
// for the local share. One process can therefore act as ingest node,
// aggregator, or both.
//
// Concurrency architecture (the merge plane):
//
//   - Writes read frames into a pooled buffer and decode them into
//     pooled scratch summaries entirely outside the slot lock; only
//     the merge itself runs under sl.mu. Steady-state ingestion
//     allocates nothing at the framing layer.
//   - Every successful mutation bumps the slot's version counter.
//     PULL serves from an epoch-versioned encoded-snapshot cache: a
//     slot re-encodes only after its version moved, and concurrent
//     readers share the cached bytes lock-free. A PULL issued after a
//     push's OK reply always observes that push (the version bump
//     happens before the reply is written).
//   - Lock ordering: n.mu (slot map) and sl.mu (one slot) are never
//     held together except map-lookup-then-slot-lock; sl.mu is never
//     held while touching another slot.
//
// A frame-layer error (a PUSH/PUSHB line of the wrong arity, an
// unparseable or oversized length line, a line longer than the 4 KiB
// read buffer, a short read) leaves the stream position unknown, so the
// server reports ERR and drops the connection rather than misparse
// frame bytes as commands. Command-layer errors (unknown kind, decode
// failure, kind mismatch) keep the connection usable.
//
// Kinds: every family in the registry catalog is served — the server
// keeps no per-kind table of its own. Kind names on the wire are the
// registry's canonical names (registry.Names lists them; currently
// mg, ss, gk, quantile, countmin, countsketch, bottomk, rangecount,
// kernel, qdigest, hll, kmv, topk). A slot's kind and shape are fixed
// by its first PUSH; mismatching pushes fail without corrupting the
// slot.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	// Link the full family catalog into any binary embedding the
	// server, so a bare daemon serves every registered kind.
	_ "repro/internal/registry/all"
)

// maxFrame bounds a single pushed frame (16 MiB) so a misbehaving
// client cannot exhaust server memory with one length header. The
// reader additionally grows its buffer only as bytes actually arrive
// (see readFrame), so even a header declaring the full 16 MiB costs
// nothing until the peer really sends that much.
const maxFrame = 16 << 20

// frameChunk is the read granularity for large frames: the frame
// buffer is extended at most this much ahead of the bytes received.
const frameChunk = 64 << 10

// MaxBatch bounds the number of frames a single PUSHB may carry.
const MaxBatch = 4096

// frameBuf is a pooled frame read buffer. Pooling the struct (not the
// slice) keeps Get/Put allocation-free.
type frameBuf struct{ b []byte }

// maxPooledFrame caps the capacity a returned frame buffer may keep:
// one giant frame must not pin megabytes in the pool.
const maxPooledFrame = 1 << 20

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

//sketch:hotpath
func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

//sketch:hotpath
func putFrame(f *frameBuf) {
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	f.b = f.b[:0]
	framePool.Put(f)
}

// Server is the aggregation daemon: the wire-protocol shell over a
// Node. Use New and Serve. Kind dispatch goes through the registry
// catalog: the server itself holds no per-kind state.
type Server struct {
	*Node

	// peer mode (SetPeers): the full cluster member list, the index of
	// this node's own entry, the idle connections kept to each member
	// (index-aligned with peers, this node's own never used; see
	// links.go), and the per-peer fan-out policy. See read.go.
	peers       []string
	selfAt      int
	links       []*links
	peerTimeout time.Duration
	peerRetries int

	// peer fan-out counters, served by METRICS.
	fanouts    atomic.Uint64 // cluster fan-in commands executed
	fanPeerOK  atomic.Uint64 // per-peer reads that succeeded
	fanPeerErr atomic.Uint64 // per-peer reads that failed after retries
	fanRetries atomic.Uint64 // per-peer retry attempts

	// winOrigin is the wall-clock instant epoch 1 began (Serve time on
	// windowed servers), unix nanoseconds; 0 until serving. With
	// winTick it is the epoch↔wall-clock mapping METRICS reports and
	// Client.QueryWindowTime uses.
	winOrigin atomic.Int64

	// connSeq hands each connection a token that spreads its pushes
	// across front lanes.
	connSeq atomic.Uint64

	// draining is set by Shutdown: the listener is closed (no new
	// connections) while in-flight connections keep being served until
	// the grace period ends.
	draining atomic.Bool

	ln     net.Listener
	loopWg sync.WaitGroup // ticker goroutines, exit on closed
	connWg sync.WaitGroup // connection handlers
	closed chan struct{}

	// conns is every accepted connection whose handler has not returned
	// — peers park idle links here, so Close must be able to hang them
	// up itself. nil once Close has run: nothing is accepted after it.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// New returns a server with no slots.
func New() *Server {
	return &Server{
		Node:   NewNode(),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Listen binds the server to addr ("127.0.0.1:0" for an ephemeral
// port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close (or Shutdown) is called. It
// returns nil on graceful shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Listen first")
	}
	if s.windowed {
		s.winOrigin.Store(time.Now().UnixNano())
	}
	if s.frontLanes > 0 {
		s.loopWg.Add(1)
		go s.flushLoop()
	}
	if s.windowed && s.winTick > 0 {
		s.loopWg.Add(1)
		go s.windowLoop()
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				// Shutdown owns the rest of the teardown.
				return nil
			}
			select {
			case <-s.closed:
				s.connWg.Wait()
				s.loopWg.Wait()
				return nil
			default:
				return err
			}
		}
		if !s.track(conn) {
			conn.Close() // accepted as Close ran
			continue
		}
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers an accepted connection for Close to hang up; it
// reports false when Close has already run.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
}

// Close stops the server now: it stops accepting, hangs up the idle
// links it keeps to its peers and every connection it still holds —
// clients' and the idle links its peers keep to it alike, so Serve
// returns without waiting for anyone else to hang up first. Slots and
// their roll-up planes own nothing to stop and stay readable until the
// server is dropped. For an orderly drain use Shutdown.
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	if s.ln != nil {
		s.ln.Close()
	}
	for _, l := range s.links {
		l.close()
	}
	s.connMu.Lock()
	conns := s.conns
	s.conns = nil
	s.connMu.Unlock()
	for conn := range conns {
		conn.Close()
	}
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, absorbs every slot's lane-parked ingest, seals the live
// window epoch (windowed servers), then waits up to grace for
// in-flight connections to finish before closing everything (Close).
// After the drain the node's serveable state contains every push a
// reply ever acknowledged — a final PULL equals the pre-shutdown state.
// A connection nobody hangs up — an idle link a peer keeps to this
// node, say — holds the wait to the full grace period.
func (s *Server) Shutdown(grace time.Duration) {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close() // stop accepting; Serve returns nil
	}
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
		case <-time.After(grace):
		}
	}
	s.Close()
	s.loopWg.Wait()
}

// windowLoop is the windowed-mode epoch ticker.
func (s *Server) windowLoop() {
	defer s.loopWg.Done()
	t := time.NewTicker(s.winTick)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.AdvanceWindows()
		}
	}
}

// flushLoop is the epoch ticker: on servers running the ingest front
// it absorbs every slot's lanes each tick, bounding the staleness of
// lane-parked data by frontTick even when nobody pulls.
func (s *Server) flushLoop() {
	defer s.loopWg.Done()
	t := time.NewTicker(s.frontTick)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.FlushFronts()
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	token := s.connSeq.Add(1)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	for {
		w.Flush()
		line, err := readLine(r)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				fmt.Fprintf(w, "ERR %v\n", err)
			}
			return
		}
		fields := strings.Fields(string(line))
		if len(fields) == 0 {
			continue
		}
		switch verb := strings.ToUpper(fields[0]); verb {
		case "PUSH", "PUSHB":
			if !s.cmdWrite(verb, token, fields, r, w) {
				return
			}
		case "PULL", "PULLC", "QWIN", "QWINC":
			s.cmdRead(verb, fields, w)
		case "STAT":
			s.cmdStat(w)
		case "METRICS":
			s.cmdMetrics(w)
		case "RESET":
			s.cmdReset(fields, w)
		case "QUIT":
			return
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		}
	}
}

// errLineTooLong reports a command or length line that does not fit the
// connection's read buffer; it is protocol-fatal.
var errLineTooLong = errors.New("line too long")

// readLine returns the next newline-terminated line, aliasing r's
// buffer (valid until the next read). The buffer size (4 KiB) bounds a
// line, so a client that never sends a newline cannot grow memory.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, errLineTooLong
	}
	return line, err
}

// readLengthPrefixed reads one self-delimiting summary frame preceded
// by its length line ("<len>\n") into f's pooled buffer, returning the
// filled slice (aliasing f.b; valid until f is recycled). The declared
// length is capped at maxFrame and the buffer grows only as bytes
// actually arrive (readFrame). Any error from here is protocol-fatal:
// the stream position is unknown and the connection must be dropped
// after reporting it.
func readLengthPrefixed(r *bufio.Reader, f *frameBuf) ([]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	line = bytes.TrimSpace(line)
	n, err := strconv.Atoi(string(line))
	if err != nil || n < 0 || n > maxFrame {
		return nil, fmt.Errorf("bad frame length %q (max %d)", line, maxFrame)
	}
	buf, err := readFrame(r, f.b, n)
	f.b = buf
	return buf, err
}

// readFrame reads an n-byte frame into buf's storage, returning the
// filled slice — or, with the error, what it grew to, emptied. Whoever
// declared n is not trusted with memory: the buffer grows only as
// bytes actually arrive — at most one frameChunk ahead and at most 2×
// the received size — so a hostile length header cannot force a large
// up-front allocation, from a pushing client or from a peer's reply.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), frameChunk)
		start := len(buf)
		if cap(buf) < start+chunk {
			nb := make([]byte, start, min(max(2*cap(buf), start+chunk), n))
			copy(nb, buf)
			buf = nb
		}
		buf = buf[:start+chunk]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:0], err
		}
	}
	return buf, nil
}

func (s *Server) cmdStat(w *bufio.Writer) {
	// Rows are formatted outside the write loop (each under its slot's
	// lock inside Node.Rows, in slot-name order): the client may be slow
	// to drain and must not stall a slot.
	rows := s.Rows()
	fmt.Fprintf(w, "OK %d\n", len(rows))
	for _, row := range rows {
		fmt.Fprintf(w, "%s %s %d %d\n", row.Name, row.Kind, row.N, row.Pushes)
	}
}

// cmdMetrics handles METRICS: the per-kind push/pull/merge/drop counters
// (kind.push = kind.merge + summaries installed into a slot + kind.drop,
// and kind.drop — acknowledged writes a fronted slot could not absorb at
// flush time — is 0 on a healthy node), the peer fan-out and link
// counters (peer mode), the number of open inbound connections, and the
// window epoch origin and tick (windowed mode) as "<name> <value>" rows —
// the first slice of the observability surface, and the epoch↔wall-clock
// mapping Client.QueryWindowTime resolves epochs against. peer.dials +
// peer.reused is the number of attempts made at remote members, so reused
// over that sum is the hit rate of the idle links; peer.idle and
// conns.open are gauges.
func (s *Server) cmdMetrics(w *bufio.Writer) {
	type row struct {
		name string
		val  uint64
	}
	rows := make([]row, 0, 4*16+12)
	for _, ks := range s.Stats() {
		rows = append(rows,
			row{"kind.push." + ks.Kind, ks.Pushes},
			row{"kind.pull." + ks.Kind, ks.Pulls},
			row{"kind.merge." + ks.Kind, ks.Merges},
			row{"kind.drop." + ks.Kind, ks.Drops},
		)
	}
	if len(s.peers) > 0 {
		rows = append(rows,
			row{"peer.count", uint64(len(s.peers))},
			row{"peer.fanouts", s.fanouts.Load()},
			row{"peer.ok", s.fanPeerOK.Load()},
			row{"peer.errors", s.fanPeerErr.Load()},
			row{"peer.retries", s.fanRetries.Load()},
		)
		var dials, reused, idle uint64
		for _, l := range s.links {
			dials += l.dials.Load()
			reused += l.reused.Load()
			idle += uint64(l.idleCount())
		}
		rows = append(rows,
			row{"peer.dials", dials},
			row{"peer.reused", reused},
			row{"peer.idle", idle},
		)
	}
	s.connMu.Lock()
	open := len(s.conns)
	s.connMu.Unlock()
	rows = append(rows, row{"conns.open", uint64(open)})
	if s.windowed {
		rows = append(rows,
			row{"window.epoch", s.Epoch()},
			row{"window.origin_unix_ns", uint64(s.winOrigin.Load())},
			row{"window.tick_ns", uint64(s.winTick)},
			row{"window.seal_errors", s.sealErrs.Load()},
		)
	}
	fmt.Fprintf(w, "OK %d\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "%s %d\n", r.name, r.val)
	}
}

func (s *Server) cmdReset(fields []string, w *bufio.Writer) {
	if len(fields) != 2 {
		fmt.Fprintf(w, "ERR usage: RESET <slot>\n")
		return
	}
	s.Reset(fields[1])
	fmt.Fprintf(w, "OK 0\n")
}
