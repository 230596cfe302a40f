package server

import (
	"bufio"
	"bytes"
	"encoding"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/mg"
	"repro/internal/registry"
)

// recordingProxy relays one connection to addr and keeps both byte
// streams; wait returns (what the client sent, what the server replied)
// once both sides have hung up.
func recordingProxy(t *testing.T, addr string) (proxyAddr string, wait func() (string, string)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sent, replied bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ln.Close()
		down, err := ln.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer up.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(down, io.TeeReader(up, &replied))
		}()
		io.Copy(up, io.TeeReader(down, &sent))
	}()
	return ln.Addr().String(), func() (string, string) {
		wg.Wait()
		return sent.String(), replied.String()
	}
}

// TestWriteWireTranscript pins the write side of the protocol byte for
// byte, as recorded before the senders were unified: the request bytes
// of Push, PushBatch (including the split of a batch longer than
// MaxBatch) and PushTyped, and the server's success replies.
func TestWriteWireTranscript(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	proxyAddr, wait := recordingProxy(t, addr)
	c, err := Dial(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}

	a, b := mg.New(4), mg.New(4)
	a.Update(1, 5)
	b.Update(2, 7)
	fa, _ := a.MarshalBinary()
	fb, _ := b.MarshalBinary()
	framed := func(f []byte) string { return fmt.Sprintf("%d\n%s", len(f), f) }

	if _, err := c.Push("s", "mg", a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushBatch("s", "mg", []encoding.BinaryMarshaler{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, err := PushTyped(c, "s", b); err != nil {
		t.Fatal(err)
	}
	big := make([]encoding.BinaryMarshaler, MaxBatch+2)
	for i := range big {
		big[i] = a
	}
	if n, err := c.PushBatch("big", "mg", big); err != nil || n != 5*uint64(len(big)) {
		t.Fatalf("split PushBatch: n=%d err=%v", n, err)
	}
	c.Close()

	wantSent := "PUSH s mg\n" + framed(fa) +
		"PUSHB s mg 2\n" + framed(fa) + framed(fb) +
		"PUSH s mg\n" + framed(fb) +
		fmt.Sprintf("PUSHB big mg %d\n", MaxBatch) + strings.Repeat(framed(fa), MaxBatch) +
		"PUSHB big mg 2\n" + strings.Repeat(framed(fa), 2) +
		"QUIT\n"
	wantReplied := fmt.Sprintf("OK 5\nOK 17\nOK 24\nOK %d\nOK %d\n", 5*MaxBatch, 5*(MaxBatch+2))
	sent, replied := wait()
	if sent != wantSent {
		t.Errorf("request bytes differ from the recorded transcript (%d bytes, want %d)\n got prefix %q\nwant prefix %q",
			len(sent), len(wantSent), sent[:min(len(sent), 120)], wantSent[:120])
	}
	if replied != wantReplied {
		t.Errorf("replies = %q, want %q", replied, wantReplied)
	}
}

// TestWriteOneAllocs pins the cost of the unified path where it could
// creep up: a PUSH through the one handler allocates once (the reply
// line's formatting) and Node.Ingest through IngestBatch not at all —
// the pooled scratch decodes in place and the mg merge works in
// scratch the accumulator keeps (10 and 9 before decoding did). Skipped
// under -race: see raceEnabled.
func TestWriteOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: pooled scratch is sometimes made anew")
	}
	ent, _ := registry.ByName("mg")
	frame, err := ent.Encode(ent.Example(100))
	if err != nil {
		t.Fatal(err)
	}
	body := append(fmt.Appendf(nil, "%d\n", len(frame)), frame...)

	s := New()
	src := bytes.NewReader(nil)
	r := bufio.NewReader(src)
	w := bufio.NewWriter(io.Discard)
	fields := []string{"PUSH", "s", "mg"}
	handler := testing.AllocsPerRun(200, func() {
		src.Reset(body)
		r.Reset(src)
		if !s.cmdWrite("PUSH", 1, fields, r, w) {
			t.Fatal("handler dropped the connection")
		}
		w.Flush()
	})
	if handler > 1 {
		t.Errorf("PUSH through cmdWrite: %v allocs, want <= 1", handler)
	}

	n := NewNode()
	ingest := testing.AllocsPerRun(200, func() {
		sc := ent.GetScratch()
		if err := ent.DecodeInto(sc, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Ingest("s", ent, sc); err != nil {
			t.Fatal(err)
		}
	})
	if ingest > 0 {
		t.Errorf("decode + Node.Ingest: %v allocs, want 0", ingest)
	}
}
