package server

import (
	"bufio"
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/window"
)

// Client speaks the summaryd protocol over one TCP connection. It is
// not safe for concurrent use; open one client per goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// Wall-clock→epoch mapping, lazily fetched from METRICS for
	// Epochs and cached for the connection's lifetime (the
	// origin and tick are fixed at server start).
	winOriginNS int64
	winTickNS   int64
}

// newClient wraps conn in frameChunk buffers, the server's size, so a
// request or reply up to that size crosses in one write and one read.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, frameChunk), w: bufio.NewWriterSize(conn, frameChunk)}
}

// Dial connects to a summaryd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// DialTimeout is Dial with a connect timeout, for callers that must
// not block on a dead address.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// SetDeadline bounds every subsequent read and write on the
// connection; a zero time clears it.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// RemoteError is an ERR reply from the server, as opposed to a
// transport failure. Msg is the server's text after "ERR ".
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "server: " + e.Msg }

// IsNoData reports whether err — a server's ERR reply, or the error of
// a read answered in process — means "nothing held for that query": a
// slot the node never saw, an empty slot, or a window range nothing was
// sealed into, rather than a failure. Fan-in readers use it to let such
// members contribute nothing.
func IsNoData(err error) bool {
	if errors.Is(err, errNoSlot) || errors.Is(err, errSlotEmpty) || errors.Is(err, window.ErrNoData) {
		return true
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	return strings.HasPrefix(re.Msg, "no such slot ") ||
		strings.HasSuffix(re.Msg, "is empty") ||
		strings.Contains(re.Msg, "nothing summarized")
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	fmt.Fprintf(c.w, "QUIT\n")
	c.w.Flush()
	return c.conn.Close()
}

// readStatus reads a reply's status line and returns what follows its
// "OK", aliasing c.r's buffer (valid until the next read). The line is
// bounded as the server bounds its own (readLine): a reply that never
// ends its line is a transport error, not an accumulator.
func (c *Client) readStatus() ([]byte, error) {
	line, err := readLine(c.r)
	if err != nil {
		return nil, err
	}
	line = bytes.TrimSpace(line)
	if msg, ok := bytes.CutPrefix(line, []byte("ERR ")); ok {
		return nil, &RemoteError{Msg: string(msg)}
	}
	rest, ok := bytes.CutPrefix(line, []byte("OK"))
	if !ok {
		return nil, fmt.Errorf("server: malformed reply %q", line)
	}
	return bytes.TrimSpace(rest), nil
}

// readRow reads one STAT or METRICS row as its whitespace-separated
// fields, of which it wants exactly want.
func (c *Client) readRow(what string, want int) ([][]byte, error) {
	line, err := readLine(c.r)
	if err != nil {
		return nil, err
	}
	f := bytes.Fields(line)
	if len(f) != want {
		return nil, fmt.Errorf("server: malformed %s row %q", what, bytes.TrimSpace(line))
	}
	return f, nil
}

// push is the one sender of a write: frames go out behind a PUSH line,
// or — batched — behind PUSHB lines of at most MaxBatch frames each, and
// the last "OK <n>" reply is the merged slot's N after the write. The
// line is appended into w's own buffer, as a read's is
// (query.writeLine).
func (c *Client) push(slot, kind string, batched bool, frames ...[]byte) (n uint64, err error) {
	if len(frames) == 0 {
		return 0, fmt.Errorf("server: empty batch")
	}
	for len(frames) > 0 {
		chunk := frames[:min(len(frames), MaxBatch)]
		frames = frames[len(chunk):]
		b := append(c.w.AvailableBuffer(), "PUSH"...)
		if batched {
			b = append(b, 'B')
		}
		b = append(append(b, ' '), slot...)
		b = append(append(b, ' '), kind...)
		if batched {
			b = strconv.AppendInt(append(b, ' '), int64(len(chunk)), 10)
		}
		c.w.Write(append(b, '\n'))
		for _, f := range chunk {
			c.w.Write(append(strconv.AppendInt(c.w.AvailableBuffer(), int64(len(f)), 10), '\n'))
			c.w.Write(f)
		}
		if err := c.w.Flush(); err != nil {
			return 0, err
		}
		rest, err := c.readStatus()
		if err != nil {
			return 0, err
		}
		if n, err = strconv.ParseUint(string(rest), 10, 64); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// marshalAll encodes every summary of a batch. Writes marshal before
// they touch the wire, so an encoding failure cannot leave a
// half-written batch on the stream.
func marshalAll(summaries []encoding.BinaryMarshaler) ([][]byte, error) {
	frames := make([][]byte, len(summaries))
	for i, s := range summaries {
		data, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		frames[i] = data
	}
	return frames, nil
}

// Push merges a summary into the named slot and returns the slot's
// total weight after the merge.
func (c *Client) Push(slot, kind string, summary encoding.BinaryMarshaler) (uint64, error) {
	data, err := summary.MarshalBinary()
	if err != nil {
		return 0, err
	}
	return c.push(slot, kind, false, data)
}

// PushBatch merges every summary into the named slot with a single
// PUSHB round-trip — all frames are pipelined behind one command line
// and acknowledged by one reply — and returns the slot's total weight
// after the batch. Batches longer than MaxBatch are split into
// multiple round-trips transparently.
func (c *Client) PushBatch(slot, kind string, summaries []encoding.BinaryMarshaler) (uint64, error) {
	frames, err := marshalAll(summaries)
	if err != nil {
		return 0, err
	}
	return c.push(slot, kind, true, frames...)
}

// read sends q — asking for the cluster-wide answer when clusterWide
// is set — and reads the frame reply.
func (c *Client) read(q query, clusterWide bool) (string, []byte, error) {
	q.writeLine(c.w, clusterWide)
	if err := c.w.Flush(); err != nil {
		return "", nil, err
	}
	rest, err := c.readStatus()
	if err != nil {
		return "", nil, err
	}
	// The reply is "OK <kind> <len>\n<frame>".
	kind, length, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return "", nil, fmt.Errorf("server: malformed frame reply %q", rest)
	}
	length = bytes.TrimSpace(length)
	n, err := strconv.Atoi(string(length))
	if err != nil || n < 0 || n > maxFrame {
		return "", nil, fmt.Errorf("server: bad frame length %q", length)
	}
	k := string(kind) // before readFrame reads over the line
	buf, err := readFrame(c.r, nil, n)
	if err != nil {
		return "", nil, err
	}
	return k, buf, nil
}

// PullFrame fetches the named slot's raw encoded frame and its kind,
// without decoding — the shape fan-in readers and relays want.
func (c *Client) PullFrame(slot string) (string, []byte, error) {
	return c.read(query{slot: slot}, false)
}

// QueryWindowFrame fetches the raw encoded frame of the slot's epoch
// range [from, to] from a windowed server (summaryd -window), and its
// kind. Epoch 0 means "oldest retained" for from and "through the live
// epoch" for to, so QueryWindowFrame(slot, 0, 0) is the
// all-retained-history query; Epochs maps a wall-clock span to a range.
func (c *Client) QueryWindowFrame(slot string, from, to uint64) (string, []byte, error) {
	return c.read(query{slot: slot, ranged: true, from: from, to: to}, false)
}

// SlotInfo is one STAT row.
type SlotInfo struct {
	Name   string
	Kind   string
	N      uint64
	Pushes uint64
}

// Stat lists the server's slots.
func (c *Client) Stat() ([]SlotInfo, error) {
	fmt.Fprintf(c.w, "STAT\n")
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	rest, err := c.readStatus()
	if err != nil {
		return nil, err
	}
	count, err := strconv.Atoi(string(rest))
	if err != nil || count < 0 {
		return nil, fmt.Errorf("server: malformed STAT count %q", rest)
	}
	out := make([]SlotInfo, 0, count)
	for i := 0; i < count; i++ {
		f, err := c.readRow("STAT", 4)
		if err != nil {
			return nil, err
		}
		n, nErr := strconv.ParseUint(string(f[2]), 10, 64)
		p, pErr := strconv.ParseUint(string(f[3]), 10, 64)
		if nErr != nil || pErr != nil {
			return nil, fmt.Errorf("server: malformed STAT row %q", f)
		}
		out = append(out, SlotInfo{Name: string(f[0]), Kind: string(f[1]), N: n, Pushes: p})
	}
	return out, nil
}

// Reset drops the named slot.
func (c *Client) Reset(slot string) error {
	fmt.Fprintf(c.w, "RESET %s\n", slot)
	if err := c.w.Flush(); err != nil {
		return err
	}
	_, err := c.readStatus()
	return err
}

// PullClusterFrame fetches the cluster-wide merged frame of the named
// slot via PULLC: the contacted node fans the read out to every peer
// and reduces the snapshots before replying. Against a node without
// peers it is a plain PULL.
func (c *Client) PullClusterFrame(slot string) (string, []byte, error) {
	return c.read(query{slot: slot}, true)
}

// QueryWindowClusterFrame fetches the cluster-wide merged frame of the
// slot's epoch range [from, to] via QWINC (epoch-0 conventions as
// QueryWindowFrame).
func (c *Client) QueryWindowClusterFrame(slot string, from, to uint64) (string, []byte, error) {
	return c.read(query{slot: slot, ranged: true, from: from, to: to}, true)
}

// Metrics fetches the server's METRICS counters as a name→value map:
// per-kind push/pull/merge totals, peer fan-out counters (peer mode),
// and the window epoch origin and tick (windowed mode).
func (c *Client) Metrics() (map[string]uint64, error) {
	fmt.Fprintf(c.w, "METRICS\n")
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	rest, err := c.readStatus()
	if err != nil {
		return nil, err
	}
	count, err := strconv.Atoi(string(rest))
	if err != nil || count < 0 {
		return nil, fmt.Errorf("server: malformed METRICS count %q", rest)
	}
	out := make(map[string]uint64, count)
	for i := 0; i < count; i++ {
		f, err := c.readRow("METRICS", 2)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseUint(string(f[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: malformed METRICS value %q", f)
		}
		out[string(f[0])] = v
	}
	return out, nil
}

// windowClock fetches (once per connection) the server's epoch origin
// and tick from METRICS. Both are fixed at server start, so caching
// them is safe for the connection's lifetime.
func (c *Client) windowClock() (originNS, tickNS int64, err error) {
	if c.winTickNS != 0 {
		return c.winOriginNS, c.winTickNS, nil
	}
	m, err := c.Metrics()
	if err != nil {
		return 0, 0, err
	}
	origin, okO := m["window.origin_unix_ns"]
	tick, okT := m["window.tick_ns"]
	if !okO || !okT || tick == 0 {
		return 0, 0, fmt.Errorf("server: windowed queries disabled (start with -window)")
	}
	c.winOriginNS, c.winTickNS = int64(origin), int64(tick)
	return c.winOriginNS, c.winTickNS, nil
}

// epochAt maps a wall-clock instant to the epoch that was live at
// that instant: epoch 1 spans [origin, origin+tick), and so on.
// Instants before the origin map to epoch 1.
func epochAt(t time.Time, originNS, tickNS int64) uint64 {
	d := t.UnixNano() - originNS
	if d < 0 {
		return 1
	}
	return uint64(d/tickNS) + 1
}

// Epochs maps the wall-clock span [from, to] to the epoch range that
// QueryWindowFrame and QueryWindowClusterFrame take, with the epoch
// origin and tick the server reports over METRICS: every epoch that
// was live at any instant of the span, rounded outward to epoch
// boundaries. A zero time stays epoch 0 — "oldest retained" for from,
// "through the live epoch" for to. The server must be running windowed
// mode with a tick (summaryd -window -window-tick), since only
// tick-driven epochs track wall time; peers of a cluster advance on the
// same tick, so the range names the same span on every node.
func (c *Client) Epochs(from, to time.Time) (fromE, toE uint64, err error) {
	originNS, tickNS, err := c.windowClock()
	if err != nil {
		return 0, 0, err
	}
	if !from.IsZero() {
		fromE = epochAt(from, originNS, tickNS)
	}
	if !to.IsZero() {
		toE = epochAt(to, originNS, tickNS)
	}
	return fromE, toE, nil
}
