package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/registry"
)

// countConn is a scripted connection: Read serves in, Write appends to
// out, and each counts its calls — the syscalls a real socket would
// make. Nothing else of net.Conn is used by the code under test.
type countConn struct {
	net.Conn
	in            bytes.Reader
	out           bytes.Buffer
	reads, writes int
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads++
	return c.in.Read(p)
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

func (c *countConn) Close() error { return nil }

// script resets c to serve in from the start, with no calls counted.
func (c *countConn) script(in []byte) {
	c.in.Reset(in)
	c.out.Reset()
	c.reads, c.writes = 0, 0
}

// bigMGFrames returns count mg frames of 5–7 KB each: more than the 4
// KiB buffers the connections used to have, and together less than
// frameChunk.
func bigMGFrames(t *testing.T, count int) [][]byte {
	t.Helper()
	frames := make([][]byte, count)
	total := 0
	for i := range frames {
		s := mg.New(1024)
		for x := 0; x < 700; x++ {
			s.Update(core.Item(uint64(i)<<40|uint64(x)*0x9E37_79B9), uint64(x%7+1))
		}
		f, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
		total += len(f)
	}
	if len(frames[0]) <= 4<<10 || total >= frameChunk {
		t.Fatalf("frames of %d B, %d B in all: want each > 4 KiB and all < %d", len(frames[0]), total, frameChunk)
	}
	return frames
}

// pushB renders a PUSHB of frames as the client sends it.
func pushB(slot string, frames [][]byte) []byte {
	b := fmt.Appendf(nil, "PUSHB %s mg %d\n", slot, len(frames))
	for _, f := range frames {
		b = append(fmt.Appendf(b, "%d\n", len(f)), f...)
	}
	return b
}

// TestOneSyscallPerMessage pins the mechanism behind the connection
// buffers' size: a message below frameChunk leaves its sender in one
// write and enters its receiver in one read. With 4 KiB buffers each of
// these took one call per 4 KiB.
func TestOneSyscallPerMessage(t *testing.T) {
	frames := bigMGFrames(t, 8)

	// The client sends a whole PUSHB in one Write.
	conn := &countConn{}
	conn.script([]byte("OK 1\n"))
	c := newClient(conn)
	if _, err := c.push("s", "mg", true, frames...); err != nil {
		t.Fatal(err)
	}
	if want := pushB("s", frames); !bytes.Equal(conn.out.Bytes(), want) {
		t.Fatalf("PUSHB bytes differ from the protocol's (%d B, want %d)", conn.out.Len(), len(want))
	}
	if conn.writes != 1 {
		t.Errorf("a %d B PUSHB left the client in %d writes, want 1", conn.out.Len(), conn.writes)
	}

	// The server takes it in one Read (the second sees the end of the
	// stream) and answers in one Write.
	s := New()
	conn.script(pushB("s", frames))
	s.handle(conn)
	if conn.reads > 2 {
		t.Errorf("the server read a %d B PUSHB in %d reads, want <= 2", conn.in.Size(), conn.reads)
	}
	if !strings.HasPrefix(conn.out.String(), "OK ") || conn.writes != 1 {
		t.Errorf("PUSHB reply %q in %d writes, want OK in 1", conn.out.String(), conn.writes)
	}

	// Replies: a frame above 4 KiB, a STAT of 300 rows and METRICS each
	// leave the server in one Write.
	for i := 0; i < 300; i++ {
		conn.script(append(fmt.Appendf(nil, "PUSH slot-%03d mg\n%d\n", i, len(frames[0])), frames[0]...))
		s.handle(conn)
	}
	for _, cmd := range []string{"PULL s", "STAT", "METRICS"} {
		conn.script([]byte(cmd + "\n"))
		s.handle(conn)
		if !strings.HasPrefix(conn.out.String(), "OK ") || conn.writes != 1 {
			t.Errorf("%s: a %d B reply in %d writes, want OK in 1", cmd, conn.out.Len(), conn.writes)
		}
		if cmd != "METRICS" && conn.out.Len() <= 4<<10 {
			t.Errorf("%s: reply of %d B, want more than 4 KiB", cmd, conn.out.Len())
		}
	}
}

// TestIdleConnHoldsOnlyReader pins what a connection keeps between
// commands: its frameChunk reader. The reply writer goes back to the
// pool once a command is answered, so it is not paid per idle
// connection.
func TestIdleConnHoldsOnlyReader(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	ent, _ := registry.ByName("mg")
	frame, err := ent.Encode(ent.Example(100))
	if err != nil {
		t.Fatal(err)
	}
	push := append(fmt.Appendf(nil, "PUSH s mg\n%d\n", len(frame)), frame...)

	const conns = 64
	held := make([]net.Conn, 0, conns)
	defer func() {
		for _, conn := range held {
			conn.Close()
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var reply [64]byte
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, conn)
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(push); err != nil {
			t.Fatal(err)
		}
		// "OK <n>\n" comes in one segment.
		if n, err := conn.Read(reply[:]); err != nil || !bytes.HasPrefix(reply[:n], []byte("OK ")) {
			t.Fatalf("PUSH %d: reply %q, %v", i, reply[:n], err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	per := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / conns
	if per > frameChunk+16<<10 {
		t.Errorf("an idle connection holds %d B of heap, want <= %d (its reader and no writer)", per, frameChunk+16<<10)
	}
}
