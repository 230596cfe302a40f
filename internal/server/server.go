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
//	PUSH <slot> <kind>\n<frame>   → OK <n>\n            merge frame into slot; n = the slot's weight after it
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
// Fields are separated by runs of ASCII white space — space, \t, \v,
// \f, \r and the line's \n — and nothing else: U+00A0 or U+0085 are
// bytes of a name like any other. Verbs match ignoring ASCII case. A
// slot or kind name is one field, so it holds no ASCII white space;
// Client and ClusterClient refuse a name that is empty or holds white
// space or another ASCII control byte before writing anything, since
// "x\nRESET victim" would otherwise run a second command. A server
// reads its command line in place: the line is split over the reader's
// bytes, a slot is looked up without copying its name (the name is
// copied once, when its slot is created), and replies are appended
// into the pooled writer, so a PUSH and a cached PULL or QWIN allocate
// nothing for the request.
//
// QWIN is the time-travel query: on servers running windowed mode
// (SetWindow), every slot additionally feeds a multi-resolution
// roll-up plane (internal/window.Plane) and QWIN returns the merged
// summary of the epoch range [from, to] — 0 meaning "oldest retained"
// and "through the live epoch" respectively. The reply frame is
// byte-identical in shape to PULL's. Without windowed mode QWIN
// reports an error.
//
// PULLC and QWINC are the cluster fan-in commands: in peer mode
// (SetPeers / summaryd -peers) the node reads the single-node answer
// from every peer over kept links (links.go), in rounds on the calling
// goroutine, and reduces them with its own in member order — the
// paper's topology-free merge run over the network as a star. A peer it
// cannot reach turns the reply into a partial-result error, never a
// hang (fanIn.gather).
//
// All four read commands are one path (read.go):
//
//	query → local answer | gather over the members → reduce → reply
//
// The command line parses into a query value that knows what differs
// between reads (its wire line, its answer on a Node, its no-data
// reply); it is answered from this node's own state or gathered over
// the peer list, reduced, and written by the one frame-reply writer.
// The cluster client's PullAllFrame/QueryWindowAllFrame run the same
// gather and the same reduce client-side, reaching members over the
// same pooled links, and the reduce (cluster.ReduceEncoded) is the
// window.Reduce the roll-up plane folds its segments with. The paper's
// theorem is why one of each suffices: a summary's guarantee survives
// any merge tree, so it cannot matter whether the ladder, a peer or a
// client picked it.
//
// Both write commands are one path too (write.go):
//
//	frames → decode outside any lock → one locked absorb → one reply
//
// Every frame on the wire is preceded by its own "<len>\n" length line,
// and PUSH is PUSHB of one (up to MaxBatch frames, one reply): cmdWrite
// decodes the frames with no lock held, and Node.IngestBatch folds them
// into the slot under one acquisition of its lock. "OK <n>" is the
// slot's N after the write, and METRICS keeps one law, kind.push =
// kind.merge + summaries installed into a slot. Frames preceding a
// failed merge within a batch stay merged (the reply reports the error
// and the failing frame).
//
// Layering: all slot state — the slot table, each slot's versioned
// accumulator, the roll-up planes and the per-kind operation
// counters — lives on Node (node.go), which has no network attached.
// Server is the wire-protocol shell over the node's ingest/read
// methods, which the cluster fan-in reuses for the local share. One
// process can therefore act as ingest node, aggregator, or both.
//
// Concurrency (the merge plane, DESIGN.md §5): a slot's state is a
// window.Acc under sl.mu, so a PULL serves, lock-free, the frame valid
// for the slot's current version, never one from before a push whose
// reply was written. n.mu (slot map) and sl.mu (one slot) nest only as
// map-lookup-then-slot-lock; sl.mu is never held while touching another
// slot.
//
// Both ends hold frameChunk (64 KiB) connection buffers, so a message up
// to that size — a PUSHB of aggregator-size frames, a frame reply —
// crosses in one write and one read. A server connection keeps only its
// reader between commands; its reply writer comes from a pool per
// command.
//
// A frame-layer error (a PUSH/PUSHB line of the wrong arity, an
// unparseable or oversized length line, a line longer than maxLine
// (4 KiB), a short read) leaves the stream position unknown, so the
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

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

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

	// peer mode (SetPeers): the fan-in over the full cluster member
	// list, this node's own entry answered in process, with the idle
	// links kept to the others and the fan-out counters METRICS serves;
	// nil outside peer mode. See read.go.
	fan *fanIn

	// winOrigin is the wall-clock instant epoch 1 began (Serve time on
	// windowed servers), unix nanoseconds; 0 until serving. With
	// winTick it is the epoch↔wall-clock mapping METRICS reports and
	// Client.Epochs uses.
	winOrigin atomic.Int64

	// draining is set by Shutdown: the listener is closed (no new
	// connections) while in-flight connections keep being served until
	// the grace period ends.
	draining atomic.Bool

	ln     net.Listener
	loopWg sync.WaitGroup // the window ticker, exits on closed
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
	if s.fan != nil {
		for _, l := range s.fan.links {
			l.close()
		}
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
// connections, seals the live window epoch (windowed servers), then
// waits up to grace for in-flight connections to finish before closing
// everything (Close). Every push a reply acknowledged is already in its
// slot, so a final PULL equals the pre-shutdown state.
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

// writerPool holds the connections' reply writers. A connection takes
// one per command, once the command line is in, and puts it back after
// the reply is flushed: an idle connection pins only its reader.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, frameChunk) }}

// handle serves one connection. Both of its buffers are frameChunk
// bytes, so a message up to that size crosses in one read and one
// write.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, frameChunk)
	for {
		line, err := readLine(r)
		if err != nil && !errors.Is(err, errLineTooLong) {
			return
		}
		w := writerPool.Get().(*bufio.Writer)
		w.Reset(conn)
		keep := false
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			keep = s.command(line, r, w)
		}
		w.Flush()
		w.Reset(nil) // the pool must not pin the connection
		writerPool.Put(w)
		if !keep {
			return
		}
	}
}

// command runs one command line, writing its reply into w; it returns
// false when the connection must drop. The line is split in place
// (splitFields) and nothing of it is copied unless a slot is created
// under its name.
func (s *Server) command(line []byte, r *bufio.Reader, w *bufio.Writer) bool {
	var buf [maxFields][]byte
	fields := splitFields(buf[:0], line)
	if len(fields) == 0 {
		return true
	}
	switch verb := verbOf(fields[0]); verb {
	case "PUSH", "PUSHB":
		return s.cmdWrite(verb, fields, r, w)
	case "PULL", "PULLC", "QWIN", "QWINC":
		s.cmdRead(verb, fields, w)
	case "STAT":
		s.cmdStat(w)
	case "METRICS":
		s.cmdMetrics(w)
	case "RESET":
		s.cmdReset(fields, w)
	case "QUIT":
		return false
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
	}
	return true
}

// isSpace reports whether c separates the fields of a command line:
// ASCII space, \t, \n, \v, \f or \r. No other byte does, so a slot
// name may hold U+00A0 or U+0085.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// maxFields is the most fields splitFields keeps: the longest commands
// (PUSHB, QWIN) have four, and a fifth tells a line with too many apart.
const maxFields = 5

// splitFields appends the isSpace-separated fields of line to dst, up
// to cap(dst) of them, and returns dst. The fields alias line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	for i := 0; i < len(line) && len(dst) < cap(dst); {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

// verbs are the protocol's commands.
var verbs = [...]string{"PUSH", "PUSHB", "PULL", "PULLC", "QWIN", "QWINC", "STAT", "METRICS", "RESET", "QUIT"}

// verbOf returns the command f names, matched ignoring ASCII case, or
// "" when it names none.
func verbOf(f []byte) string {
next:
	for _, v := range verbs {
		if len(f) != len(v) {
			continue
		}
		for i := range len(v) {
			if f[i]&^0x20 != v[i] { // v is upper-case letters only
				continue next
			}
		}
		return v
	}
	return ""
}

// atoi and parseUint are strconv's Atoi and base-10 ParseUint of b.
// strconv copies its input only into an error, so the conversion
// copies nothing for b of up to 32 bytes: a count, a length or an epoch
// parses without allocating.
func atoi(b []byte) (int, error) { return strconv.Atoi(string(b)) }

func parseUint(b []byte) (uint64, error) { return strconv.ParseUint(string(b), 10, 64) }

// writeOK writes the status line "OK <n>".
func writeOK(w *bufio.Writer, n uint64) {
	b := strconv.AppendUint(append(w.AvailableBuffer(), "OK "...), n, 10)
	w.Write(append(b, '\n'))
}

// maxLine bounds a command, length or status line, newline included.
const maxLine = 4 << 10

// errLineTooLong reports a line longer than maxLine; it is
// protocol-fatal.
var errLineTooLong = errors.New("line too long")

// readLine returns the next newline-terminated line, aliasing r's
// buffer (valid until the next read). A line is bounded by maxLine, and
// a peer that never sends a newline by r's buffer, so neither grows
// memory.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) || len(line) > maxLine {
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
	n, err := atoi(line)
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
	writeOK(w, uint64(len(rows)))
	for _, row := range rows {
		b := append(w.AvailableBuffer(), row.Name...)
		b = append(append(b, ' '), row.Kind...)
		b = strconv.AppendUint(append(b, ' '), row.N, 10)
		b = strconv.AppendUint(append(b, ' '), row.Pushes, 10)
		w.Write(append(b, '\n'))
	}
}

// cmdMetrics handles METRICS: the per-kind push/pull/merge counters
// (kind.push = kind.merge + summaries installed into a slot), the peer
// fan-out and link
// counters (peer mode), the number of open inbound connections, and the
// window epoch origin and tick (windowed mode) as "<name> <value>" rows —
// the first slice of the observability surface, and the epoch↔wall-clock
// mapping Client.Epochs resolves epochs against. peer.dials +
// peer.reused is the number of attempts made at remote members, so reused
// over that sum is the hit rate of the idle links; peer.idle and
// conns.open are gauges.
func (s *Server) cmdMetrics(w *bufio.Writer) {
	type row struct {
		name string
		val  uint64
	}
	rows := make([]row, 0, 3*16+12)
	for _, ks := range s.Stats() {
		rows = append(rows,
			row{"kind.push." + ks.Kind, ks.Pushes},
			row{"kind.pull." + ks.Kind, ks.Pulls},
			row{"kind.merge." + ks.Kind, ks.Merges},
		)
	}
	if f := s.fan; f != nil {
		rows = append(rows,
			row{"peer.count", uint64(len(f.members))},
			row{"peer.fanouts", f.fanouts.Load()},
			row{"peer.ok", f.ok.Load()},
			row{"peer.errors", f.failed.Load()},
			row{"peer.retries", f.retried.Load()},
		)
		var dials, reused, idle uint64
		for _, l := range f.links {
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
	writeOK(w, uint64(len(rows)))
	for _, r := range rows {
		b := append(w.AvailableBuffer(), r.name...)
		b = strconv.AppendUint(append(b, ' '), r.val, 10)
		w.Write(append(b, '\n'))
	}
}

func (s *Server) cmdReset(fields [][]byte, w *bufio.Writer) {
	if len(fields) != 2 {
		fmt.Fprintf(w, "ERR usage: RESET <slot>\n")
		return
	}
	s.Reset(string(fields[1]))
	w.WriteString("OK 0\n")
}
