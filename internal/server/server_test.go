package server

import (
	"bufio"
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/randquant"
	"repro/internal/registry"
)

// decoded unmarshals the frame a read returns into out and passes the
// read's kind through, so decoded(&s)(c.PullFrame(slot)) is a typed
// pull; a failed read is returned as is.
func decoded(out encoding.BinaryUnmarshaler) func(kind string, frame []byte, err error) (string, error) {
	return func(kind string, frame []byte, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return kind, out.UnmarshalBinary(frame)
	}
}

// startServer returns a running server's address and a stop function.
func startServer(t *testing.T) (string, func()) {
	t.Helper()
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return addr, func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := mg.New(16)
	s.Update(7, 100)
	s.Update(9, 50)
	n, err := c.Push("flows", "mg", s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("push returned n=%d", n)
	}

	var got mg.Summary
	kind, err := decoded(&got)(c.PullFrame("flows"))
	if err != nil {
		t.Fatal(err)
	}
	if kind != "mg" {
		t.Fatalf("kind = %q", kind)
	}
	if got.N() != 150 || got.Estimate(7).Value != 100 {
		t.Fatalf("pulled summary wrong: n=%d", got.N())
	}
}

// The server's whole point: concurrent workers push shard summaries,
// the pulled slot equals a single-site summary within the bound.
func TestConcurrentWorkers(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	const workers = 8
	const perWorker = 20000
	const k = 64

	var truthMu sync.Mutex
	truth := exact.NewFreqTable()

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("worker %d: %v", id, err)
				return
			}
			defer c.Close()
			s := mg.New(k)
			local := exact.NewFreqTable()
			for _, x := range gen.NewZipf(2000, 1.3, uint64(id)+1).Stream(perWorker) {
				s.Update(x, 1)
				local.Add(x, 1)
			}
			truthMu.Lock()
			truth.Merge(local)
			truthMu.Unlock()
			if _, err := c.Push("agg", "mg", s); err != nil {
				t.Errorf("worker %d push: %v", id, err)
			}
		}(wid)
	}
	wg.Wait()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var merged mg.Summary
	if _, err := decoded(&merged)(c.PullFrame("agg")); err != nil {
		t.Fatal(err)
	}
	n := uint64(workers * perWorker)
	if merged.N() != n {
		t.Fatalf("merged N = %d, want %d", merged.N(), n)
	}
	if merged.ErrorBound() > core.MGBound(n, k) {
		t.Errorf("bound %d > %d", merged.ErrorBound(), core.MGBound(n, k))
	}
	for _, cnt := range truth.Counters()[:10] {
		if e := merged.Estimate(cnt.Item); !e.Contains(cnt.Count) {
			t.Errorf("interval %v misses %d for item %d", e, cnt.Count, cnt.Item)
		}
	}

	stats, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Name != "agg" || stats[0].Pushes != workers || stats[0].N != n {
		t.Fatalf("Stat = %+v", stats)
	}
}

func TestMultipleKindsAndSlots(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := randquant.NewEpsilon(0.05, 1)
	for _, v := range gen.UniformValues(5000, 2) {
		q.Update(v)
	}
	if _, err := c.Push("lat", "quantile", q); err != nil {
		t.Fatal(err)
	}
	m := mg.New(8)
	m.Update(1, 3)
	if _, err := c.Push("flows", "mg", m); err != nil {
		t.Fatal(err)
	}

	// Kind mismatch on an existing slot must fail and not corrupt.
	if _, err := c.Push("lat", "mg", m); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	var back randquant.Summary
	if _, err := decoded(&back)(c.PullFrame("lat")); err != nil {
		t.Fatal(err)
	}
	if back.N() != 5000 {
		t.Fatalf("lat slot corrupted: n=%d", back.N())
	}

	stats, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("Stat rows = %d", len(stats))
	}

	if err := c.Reset("lat"); err != nil {
		t.Fatal(err)
	}
	if _, err := decoded(&back)(c.PullFrame("lat")); err == nil {
		t.Fatal("pull after reset succeeded")
	}
}

func TestProtocolErrors(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	m := mg.New(4)
	m.Update(1, 1)
	if _, err := c.Push("x", "nope", m); err == nil {
		t.Error("unknown kind accepted")
	}
	var out mg.Summary
	if _, err := decoded(&out)(c.PullFrame("missing")); err == nil {
		t.Error("missing slot pull succeeded")
	}
	// The connection must still be usable after errors.
	if _, err := c.Push("x", "mg", m); err != nil {
		t.Fatalf("connection broken after errors: %v", err)
	}
}

// TestNamesCannotSmuggleCommands: a name is one field of a command
// line, so one holding a newline would end the line early and run the
// rest as a command of its own — "x\nRESET victim" once dropped slot
// victim. Client and ClusterClient refuse an empty name, or one holding
// ASCII white space or another control byte, before writing anything:
// the connection stays in sync and victim keeps its weight.
func TestNamesCannotSmuggleCommands(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc, err := DialCluster([]string{addr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	pushMG(t, c, "victim", 1, 5)

	m := mg.New(4)
	m.Update(1, 1)
	batch := []encoding.BinaryMarshaler{m}
	for _, bad := range []string{"x\nRESET victim", "x RESET", "x\tvictim", "x\rRESET victim", "\x00", "x\x7f", ""} {
		ops := map[string]error{}
		ops["PullFrame"] = second(c.PullFrame(bad))
		ops["PullClusterFrame"] = second(c.PullClusterFrame(bad))
		ops["QueryWindowFrame"] = second(c.QueryWindowFrame(bad, 0, 0))
		ops["QueryWindowClusterFrame"] = second(c.QueryWindowClusterFrame(bad, 0, 0))
		ops["Reset"] = c.Reset(bad)
		_, ops["Push slot"] = c.Push(bad, "mg", m)
		_, ops["Push kind"] = c.Push("victim", bad, m)
		_, ops["PushBatch"] = c.PushBatch(bad, "mg", batch)
		_, ops["ClusterClient.Push"] = cc.Push(bad, "mg", m)
		_, ops["ClusterClient.PushBatch"] = cc.PushBatch("victim", bad, batch)
		ops["PullAllFrame"] = second(cc.PullAllFrame(bad))
		ops["QueryWindowAllFrame"] = second(cc.QueryWindowAllFrame(bad, 0, 0))
		for op, err := range ops {
			var re *RemoteError
			if err == nil || errors.As(err, &re) {
				t.Errorf("%s(%q): %v, want a client-side refusal", op, bad, err)
			}
		}
	}
	stats, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Name != "victim" || stats[0].N != 5 {
		t.Fatalf("STAT after refused names = %+v, want victim alone with N 5", stats)
	}
}

// second returns the error of a frame read.
func second(_ string, _ []byte, err error) error { return err }

// TestUnicodeSpaceInName: only ASCII white space separates the fields
// of a command line. U+00A0 and U+0085 are bytes of a name like any
// other, so a slot so named pushes, pulls and lists as itself — they
// once split the name, and the PUSH lost its connection to a usage
// error.
func TestUnicodeSpaceInName(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := []string{"a\u00a0b", "a\u0085b", "\u3000"}
	for i, name := range names {
		pushMG(t, c, name, uint64(i), uint64(10+i))
	}
	for i, name := range names {
		var got mg.Summary
		if _, err := decoded(&got)(c.PullFrame(name)); err != nil || got.N() != uint64(10+i) {
			t.Fatalf("PULL %q: n=%d err=%v", name, got.N(), err)
		}
	}
	stats, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(names)
	slices.Sort(want)
	var got []string
	for _, row := range stats {
		got = append(got, row.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("STAT names = %q, want %q", got, want)
	}
}

// expectHangup fails unless the server has closed the connection. The
// connection needs a read deadline: running into it means the server
// is still listening.
func expectHangup(t *testing.T, r *bufio.Reader, after string) {
	t.Helper()
	line, err := r.ReadString('\n')
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Errorf("%s: connection stayed open (next read %q, %v)", after, line, err)
	}
}

// Raw-socket tests for malformed input: the server must answer ERR and
// survive.
func TestMalformedCommands(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A server that keeps a connection it should drop fails the test
	// instead of hanging it.
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)

	send := func(s string) string {
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}

	if got := send("BOGUS\n"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("BOGUS → %q", got)
	}
	// Garbage frame bytes of declared length: decode error, and the
	// connection stays usable (the stream is still in sync).
	if got := send("PUSH s mg\n4\nABCD"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("garbage frame → %q", got)
	}
	if got := send("STAT\n"); got != "OK 0" {
		t.Errorf("STAT after garbage → %q", got)
	}
	// A PUSH with the wrong arity is followed by a length line and a
	// frame the server cannot delimit: ERR, then the connection drops.
	if got := send("PUSH onlyslot\n"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("short PUSH → %q", got)
	}
	expectHangup(t, r, "short PUSH")
}

// The bytes a client sends after a PUSH the server rejected for its
// arity are the length line and frame of that push: they must never
// run as commands, whatever they spell.
func TestShortPushBodyNeverExecutes(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := mg.New(4)
	m.Update(1, 1)
	if _, err := c.Push("victim", "mg", m); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	body := "\nRESET victim\n"
	fmt.Fprintf(conn, "PUSH onlyslot\n%d\n%s", len(body), body)
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR") {
		t.Fatalf("short PUSH → %q, %v; want ERR", line, err)
	}
	// Once the server has hung up, everything it was going to read from
	// this connection has been read or discarded.
	expectHangup(t, r, "short PUSH")
	stats, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Name != "victim" || stats[0].N != 1 {
		t.Fatalf("frame bytes after a short PUSH were executed: STAT = %+v", stats)
	}
}

// A command or length line is bounded by maxLine (4 KiB, newline
// included), whatever the connection's buffer size: a line one byte
// longer gets ERR and a closed connection, terminated or not, and a
// client that streams bytes without ever sending a newline costs the
// server no memory beyond its read buffer.
func TestUnterminatedLineIsBounded(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	junk := bytes.Repeat([]byte{'x'}, 1<<20)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, prefix := range []string{"", "PUSH s mg\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			// The server hangs up mid-stream; the write error is expected.
			conn.Write(append([]byte(prefix), junk...))
		}()
		r := bufio.NewReader(conn)
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "ERR") || !strings.Contains(line, "line too long") {
			t.Errorf("after %q + 1 MiB without newline: reply %q, %v; want ERR ... line too long", prefix, line, err)
		}
		expectHangup(t, r, "unterminated line")
		conn.Close()
		<-wrote
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	// The pre-fix reader accumulated the whole line, and kept growing
	// it for as long as the client kept sending.
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 512<<10 {
		t.Errorf("heap grew %d bytes after two 1 MiB unterminated lines", grew)
	}

	// Terminated lines: maxLine bytes pass, one more is refused. The
	// padding is leading whitespace, which both parsers skip.
	ent, _ := registry.ByName("mg")
	frame, err := ent.Encode(ent.Example(100))
	if err != nil {
		t.Fatal(err)
	}
	pad := func(s string, n int) string { return strings.Repeat(" ", n-len(s)-1) + s + "\n" }
	length := fmt.Sprint(len(frame))
	for _, tc := range []struct {
		name, payload string
		ok            bool
	}{
		{"command line of maxLine", pad("STAT", maxLine), true},
		{"command line of maxLine+1", pad("STAT", maxLine+1), false},
		{"length line of maxLine", "PUSH s mg\n" + pad(length, maxLine) + string(frame), true},
		{"length line of maxLine+1", "PUSH s mg\n" + pad(length, maxLine+1) + string(frame), false},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write([]byte(tc.payload)); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		line, err := r.ReadString('\n')
		if tc.ok {
			if err != nil || !strings.HasPrefix(line, "OK") {
				t.Errorf("%s: reply %q, %v; want OK", tc.name, line, err)
			}
		} else {
			if err != nil || !strings.HasPrefix(line, "ERR") || !strings.Contains(line, "line too long") {
				t.Errorf("%s: reply %q, %v; want ERR line too long", tc.name, line, err)
			}
			expectHangup(t, r, tc.name)
		}
		conn.Close()
	}
}

// STAT is deterministic: rows arrive sorted by slot name, so two reads
// of an unchanged node are identical.
func TestStatSortedAndStable(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := mg.New(4)
	m.Update(1, 1)
	const slots = 12
	for i := 0; i < slots; i++ {
		// Pushed in an order that is neither sorted nor reverse-sorted.
		if _, err := c.Push(fmt.Sprintf("slot-%02d", (i*5)%slots), "mg", m); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != slots || !reflect.DeepEqual(first, second) {
		t.Fatalf("two STATs differ:\n%+v\n%+v", first, second)
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i].Name < first[j].Name }) {
		t.Fatalf("STAT rows are not sorted by slot name: %+v", first)
	}
}

// Client.Stat rejects a row whose counts are not numbers instead of
// reporting them as zero.
func TestClientStatRejectsMalformedCounts(t *testing.T) {
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
		bufio.NewReader(conn).ReadString('\n') // the STAT command
		fmt.Fprintf(conn, "OK 2\nflows mg 10 2\nlat quantile many 1\n")
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rows, err := c.Stat(); err == nil || !strings.Contains(err.Error(), "malformed STAT row") {
		t.Fatalf("Stat over a non-numeric count = %+v, %v; want a malformed-row error", rows, err)
	}
}

// A frame-length error leaves the stream position unknown, so the
// server must reply ERR and then drop the connection rather than
// misparse the frame bytes that may follow as commands.
func TestFrameLengthErrorsDropConnection(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	for _, tc := range []struct {
		name, payload string
	}{
		{"unparseable length", "PUSH s mg\nnotanumber\n"},
		{"negative length", "PUSH s mg\n-5\n"},
		{"oversized length", fmt.Sprintf("PUSH s mg\n%d\n", maxFrame+1)},
		{"oversized batch frame", fmt.Sprintf("PUSHB s mg 2\n%d\n", maxFrame+1)},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		if _, err := conn.Write([]byte(tc.payload)); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: no ERR reply before close: %v", tc.name, err)
		}
		if !strings.HasPrefix(line, "ERR") {
			t.Errorf("%s → %q, want ERR", tc.name, strings.TrimSpace(line))
		}
		// The server must close its end: the next read sees EOF, not a
		// misparse of leftover bytes.
		if _, err := r.ReadString('\n'); err == nil {
			t.Errorf("%s: connection stayed open after frame-length error", tc.name)
		}
		conn.Close()
	}
}

// A hostile length header must not cost the server a frame-sized
// allocation: the frame buffer grows only as bytes arrive. This is
// observable from outside by declaring a huge (but legal) length,
// sending nothing, and watching the server survive many such
// connections without trouble; the allocation bound itself is asserted
// by reading the final heap delta.
func TestOversizedHeaderAllocationBound(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	const conns = 8
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Declare 16 MiB, deliver 16 bytes, hang up.
		fmt.Fprintf(conn, "PUSH big mg\n%d\n0123456789abcdef", maxFrame)
		conn.Close()
	}
	// Wait for the handlers to notice EOF.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c, err := Dial(addr)
		if err == nil {
			c.Stat()
			c.Close()
			break
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	// Eight aborted 16 MiB declarations with ~16 B delivered each must
	// not have allocated anywhere near 8×16 MiB; allow generous noise.
	if grew > 8<<20 {
		t.Errorf("heap grew %d bytes after %d aborted oversized frames", grew, conns)
	}
}
