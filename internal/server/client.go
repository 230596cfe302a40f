package server

import (
	"bufio"
	"encoding"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/registry"
	"repro/internal/window"
)

// Client speaks the summaryd protocol over one TCP connection. It is
// not safe for concurrent use; open one client per goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// Wall-clock→epoch mapping, lazily fetched from METRICS for
	// QueryWindowTime and cached for the connection's lifetime (the
	// origin and tick are fixed at server start).
	winOriginNS int64
	winTickNS   int64
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
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

func (c *Client) readStatus() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return "", &RemoteError{Msg: strings.TrimPrefix(line, "ERR ")}
	}
	if !strings.HasPrefix(line, "OK") {
		return "", fmt.Errorf("server: malformed reply %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, "OK")), nil
}

// push is the one sender of a write: frames go out behind a PUSH line,
// or — batched — behind PUSHB lines of at most MaxBatch frames each, and
// the last "OK <n>" reply is the weight acknowledged into the slot so
// far (the merged slot's N, or its running total on a server with the
// ingest front on). The line is appended into w's own buffer, as a
// read's is (query.writeLine).
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
		if n, err = strconv.ParseUint(rest, 10, 64); err != nil {
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
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return "", nil, fmt.Errorf("server: malformed frame reply %q", rest)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 || n > maxFrame {
		return "", nil, fmt.Errorf("server: bad frame length %q", fields[1])
	}
	buf, err := readFrame(c.r, nil, n)
	if err != nil {
		return "", nil, err
	}
	return fields[0], buf, nil
}

// decodeInto is the tail of every typed read: it unmarshals a fetched
// frame into out, passing a failed fetch through.
func decodeInto(out encoding.BinaryUnmarshaler, kind string, buf []byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return kind, out.UnmarshalBinary(buf)
}

// decodeAny is the tail of every ...Any read: the fetched frame's kind
// tag selects the registry entry, which constructs and decodes a fresh
// summary.
func decodeAny(slot, kind string, buf []byte, err error) (string, any, error) {
	if err != nil {
		return "", nil, err
	}
	ent, err := registry.FromFrame(buf)
	if err != nil {
		return "", nil, fmt.Errorf("server: slot %q kind %q: %w", slot, kind, err)
	}
	v, err := ent.Decode(buf)
	if err != nil {
		return "", nil, err
	}
	return kind, v, nil
}

// PullFrame fetches the named slot's raw encoded frame and its kind,
// without decoding — the shape fan-in readers and relays want.
func (c *Client) PullFrame(slot string) (string, []byte, error) {
	return c.read(query{slot: slot}, false)
}

// QueryWindowFrame fetches the raw encoded frame of the slot's epoch
// range [from, to] from a windowed server, and its kind.
func (c *Client) QueryWindowFrame(slot string, from, to uint64) (string, []byte, error) {
	return c.read(query{slot: slot, ranged: true, from: from, to: to}, false)
}

// QueryWindow decodes the merged summary of the named slot's epoch
// range [from, to] into out, returning the slot's kind. Epoch 0 means
// "oldest retained" for from and "through the live epoch" for to, so
// QueryWindow(slot, 0, 0, out) is the all-retained-history query. The
// server must be running windowed mode (summaryd -window).
func (c *Client) QueryWindow(slot string, from, to uint64, out encoding.BinaryUnmarshaler) (string, error) {
	kind, buf, err := c.QueryWindowFrame(slot, from, to)
	return decodeInto(out, kind, buf, err)
}

// QueryWindowAny is QueryWindow without the caller naming the type:
// the frame's kind tag selects the registry entry, which constructs
// and decodes a fresh summary (as PullAny).
func (c *Client) QueryWindowAny(slot string, from, to uint64) (string, any, error) {
	kind, buf, err := c.QueryWindowFrame(slot, from, to)
	return decodeAny(slot, kind, buf, err)
}

// Pull decodes the named slot's merged summary into out, returning the
// slot's kind.
func (c *Client) Pull(slot string, out encoding.BinaryUnmarshaler) (string, error) {
	kind, buf, err := c.PullFrame(slot)
	return decodeInto(out, kind, buf, err)
}

// PullAny fetches and decodes the named slot's merged summary without
// the caller naming its type: the frame's kind tag selects the registry
// entry, which constructs and decodes a fresh summary. The returned
// value's dynamic type is the family's summary pointer (e.g. *mg.Summary
// for kind "mg").
func (c *Client) PullAny(slot string) (string, any, error) {
	kind, buf, err := c.PullFrame(slot)
	return decodeAny(slot, kind, buf, err)
}

// PushTyped merges a summary into the named slot, deriving the wire
// kind from the summary's own frame via the registry — callers never
// spell kind strings. It returns the slot's total weight after the
// merge.
func PushTyped[T any, PT registry.Codec[T]](c *Client, slot string, summary PT) (uint64, error) {
	data, err := summary.MarshalBinary()
	if err != nil {
		return 0, err
	}
	ent, err := registry.FromFrame(data)
	if err != nil {
		return 0, fmt.Errorf("server: push: %w", err)
	}
	return c.push(slot, ent.Name(), false, data)
}

// PullTyped fetches the named slot's merged summary decoded into a
// fresh *T. The slot must hold T's registered kind; a mismatch is
// reported by the codec layer's kind check, not a silent misparse.
func PullTyped[T any, PT registry.Codec[T]](c *Client, slot string) (*T, error) {
	_, buf, err := c.PullFrame(slot)
	if err != nil {
		return nil, err
	}
	out := new(T)
	if err := PT(out).UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return out, nil
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
	count, err := strconv.Atoi(rest)
	if err != nil || count < 0 {
		return nil, fmt.Errorf("server: malformed STAT count %q", rest)
	}
	out := make([]SlotInfo, 0, count)
	for i := 0; i < count; i++ {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) != 4 {
			return nil, fmt.Errorf("server: malformed STAT row %q", line)
		}
		n, nErr := strconv.ParseUint(f[2], 10, 64)
		p, pErr := strconv.ParseUint(f[3], 10, 64)
		if nErr != nil || pErr != nil {
			return nil, fmt.Errorf("server: malformed STAT row %q", line)
		}
		out = append(out, SlotInfo{Name: f[0], Kind: f[1], N: n, Pushes: p})
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

// PullCluster decodes the cluster-wide merged summary of the named
// slot into out, returning the slot's kind.
func (c *Client) PullCluster(slot string, out encoding.BinaryUnmarshaler) (string, error) {
	kind, buf, err := c.PullClusterFrame(slot)
	return decodeInto(out, kind, buf, err)
}

// PullClusterAny is PullCluster without the caller naming the type
// (as PullAny).
func (c *Client) PullClusterAny(slot string) (string, any, error) {
	kind, buf, err := c.PullClusterFrame(slot)
	return decodeAny(slot, kind, buf, err)
}

// QueryWindowClusterFrame fetches the cluster-wide merged frame of the
// slot's epoch range [from, to] via QWINC (epoch-0 conventions as
// QueryWindow).
func (c *Client) QueryWindowClusterFrame(slot string, from, to uint64) (string, []byte, error) {
	return c.read(query{slot: slot, ranged: true, from: from, to: to}, true)
}

// QueryWindowCluster decodes the cluster-wide merged summary of the
// slot's epoch range [from, to] into out, returning the slot's kind.
func (c *Client) QueryWindowCluster(slot string, from, to uint64, out encoding.BinaryUnmarshaler) (string, error) {
	kind, buf, err := c.QueryWindowClusterFrame(slot, from, to)
	return decodeInto(out, kind, buf, err)
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
	count, err := strconv.Atoi(rest)
	if err != nil || count < 0 {
		return nil, fmt.Errorf("server: malformed METRICS count %q", rest)
	}
	out := make(map[string]uint64, count)
	for i := 0; i < count; i++ {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) != 2 {
			return nil, fmt.Errorf("server: malformed METRICS row %q", line)
		}
		v, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: malformed METRICS value %q", line)
		}
		out[f[0]] = v
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

// epochRange maps the wall-clock span [from, to] to epochs with the
// epoch origin and tick the server reports over METRICS: every epoch
// that was live at any instant of the span, rounded outward to epoch
// boundaries. A zero time stays epoch 0 — "oldest retained" for from,
// "through the live epoch" for to.
func (c *Client) epochRange(from, to time.Time) (fromE, toE uint64, err error) {
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

// QueryWindowTime decodes the merged summary of the wall-clock span
// [from, to] into out, returning the slot's kind. The span is mapped
// to epochs by epochRange. The server must be running windowed mode
// with a tick (summaryd -window -window-tick), since only tick-driven
// epochs track wall time.
func (c *Client) QueryWindowTime(slot string, from, to time.Time, out encoding.BinaryUnmarshaler) (string, error) {
	fromE, toE, err := c.epochRange(from, to)
	if err != nil {
		return "", err
	}
	return c.QueryWindow(slot, fromE, toE, out)
}

// QueryWindowClusterTime is QueryWindowTime fanned cluster-wide via
// QWINC. The contacted node's epoch clock maps the span; peers advance
// on the same tick, so the range names the same span everywhere.
func (c *Client) QueryWindowClusterTime(slot string, from, to time.Time, out encoding.BinaryUnmarshaler) (string, error) {
	fromE, toE, err := c.epochRange(from, to)
	if err != nil {
		return "", err
	}
	return c.QueryWindowCluster(slot, fromE, toE, out)
}
