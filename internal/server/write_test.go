package server

import (
	"bufio"
	"bytes"
	"encoding"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/distinct"
	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/qdigest"
	"repro/internal/registry"
	"repro/internal/window"
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
// of Push and PushBatch (including the split of a batch longer than
// MaxBatch), and the server's success replies.
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
	if _, err := c.Push("s", "mg", b); err != nil {
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
// creep up: a PUSH allocates nothing, through the one handler and
// through the connection loop — the command line is split in place and
// the reply appended into the pooled writer (the line's string, its
// fields and the reply's formatting cost three before) — and
// Node.Ingest through IngestBatch allocates nothing either: the pooled
// scratch decodes in place and the mg merge works in scratch the
// accumulator keeps (10 and 9 before decoding did). Skipped under
// -race: see raceEnabled.
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
	fields := [][]byte{[]byte("PUSH"), []byte("s"), []byte("mg")}
	handler := testing.AllocsPerRun(200, func() {
		src.Reset(body)
		r.Reset(src)
		if !s.cmdWrite("PUSH", fields, r, w) {
			t.Fatal("handler dropped the connection")
		}
		w.Flush()
	})
	if handler > 0 {
		t.Errorf("PUSH through cmdWrite: %v allocs, want 0", handler)
	}

	// Through the real handler loop, the command line's parse and the
	// pooled reply writer ride along and allocate nothing; a connection
	// costs two allocations, its reader and the reader's buffer.
	const pushes = 64
	script := bytes.Repeat(append([]byte("PUSH s mg\n"), body...), pushes)
	perPush, perConn := perCommandAllocs(s, script, pushes)
	if perPush > 0 {
		t.Errorf("PUSH through handle: %v allocs, want 0", perPush)
	}
	if perConn > 2 {
		t.Errorf("a connection through handle: %v allocs beside its PUSH, want <= 2", perConn)
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

// perCommandAllocs serves script — count copies of one command — on
// one scripted connection, and one copy on another, and returns the
// allocations of a command and of a connection beside it.
func perCommandAllocs(s *Server, script []byte, count int) (perCmd, perConn float64) {
	conn := &countConn{}
	serve := func(script []byte) func() {
		return func() {
			conn.script(script)
			s.handle(conn)
		}
	}
	one := testing.AllocsPerRun(50, serve(script[:len(script)/count]))
	all := testing.AllocsPerRun(50, serve(script))
	perCmd = (all - one) / float64(count-1)
	return perCmd, one - perCmd
}

// TestWriteReadHitAllocs pins the request path of the reads a node
// serves from cache and of the client's write: a PULL of an unchanged
// slot and a QWIN of a cached range through handle allocate nothing,
// and neither does Client.Push — its line is appended and its status
// parsed in place.
func TestWriteReadHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: pooled scratch is sometimes made anew")
	}
	ent, _ := registry.ByName("mg")
	frame, err := ent.Encode(ent.Example(100))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.SetWindow(window.Ladder{Fan: 4, Levels: 2}, 0); err != nil {
		t.Fatal(err)
	}
	sc := ent.GetScratch()
	if err := ent.DecodeInto(sc, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("s", ent, sc); err != nil {
		t.Fatal(err)
	}
	s.AdvanceWindows()
	const reads = 64
	for _, cmd := range []string{"PULL s\n", "QWIN s 1 1\n"} {
		script := bytes.Repeat([]byte(cmd), reads)
		if perRead, _ := perCommandAllocs(s, script, reads); perRead > 0 {
			t.Errorf("%q through handle: %v allocs, want 0", strings.TrimSpace(cmd), perRead)
		}
	}

	conn := &countConn{}
	c := newClient(conn)
	var sum encoding.BinaryMarshaler = rawSummary(frame)
	reply := []byte("OK 12345\n")
	push := testing.AllocsPerRun(200, func() {
		conn.script(reply)
		c.r.Reset(conn)
		if n, err := c.Push("s", "mg", sum); err != nil || n != 12345 {
			t.Fatalf("Push: n=%d err=%v", n, err)
		}
	})
	if push > 0 {
		t.Errorf("Client.Push: %v allocs, want 0", push)
	}
}

// TestPullAllocs pins the PULL path's encode cache: a PULL of a slot
// nothing was pushed into since the last PULL returns the cached frame
// and allocates nothing; one after a push encodes the slot once: the
// frame and the cache entry (mg puts its counters in frame order in
// lent scratch).
func TestPullAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: pooled scratch is sometimes made anew")
	}
	ent, _ := registry.ByName("mg")
	frame, err := ent.Encode(ent.Example(100))
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode()
	push := func() {
		sc := ent.GetScratch()
		if err := ent.DecodeInto(sc, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Ingest("s", ent, sc); err != nil {
			t.Fatal(err)
		}
	}
	pull := func() {
		if _, _, err := n.Encoded("s"); err != nil {
			t.Fatal(err)
		}
	}
	push()
	pull()
	if hit := testing.AllocsPerRun(200, pull); hit != 0 {
		t.Errorf("PULL of an unchanged slot: %v allocs, want 0", hit)
	}
	if miss := testing.AllocsPerRun(200, func() { push(); pull() }); miss != 2 {
		t.Errorf("PUSH then PULL: %v allocs, want 2", miss)
	}
}

// TestWriteRejectsFlaggedCountMin: a Count-Min frame whose reserved
// flag byte is set (what a conservative-update sketch once encoded) is
// not a linear image of a stream, and adding it to a slot would break
// the slot's merge without an error. PUSH answers ERR and the slot's
// bytes stay what they were.
func TestWriteRejectsFlaggedCountMin(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := countmin.New(64, 4, 3)
	s.UpdateBatch(gen.NewZipf(500, 1.1, 3).Stream(10000))
	if _, err := c.Push("cm", "countmin", s); err != nil {
		t.Fatal(err)
	}
	_, before, err := c.PullFrame("cm")
	if err != nil {
		t.Fatal(err)
	}

	// Set the byte after the width, depth, seed and weight fields.
	frame, _ := s.MarshalBinary()
	payload, err := codec.DecodeFrame(codec.KindCountMin, frame)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(payload)
	r.Int()
	r.Int()
	r.Uint64()
	r.Uint64()
	flag := len(payload) - r.Remaining()
	if r.Err() != nil || payload[flag] != 0 {
		t.Fatalf("flag byte at %d reads %d (%v), want 0", flag, payload[flag], r.Err())
	}
	payload = bytes.Clone(payload)
	payload[flag] = 1
	if _, err := c.Push("cm", "countmin", rawSummary(codec.EncodeFrame(codec.KindCountMin, payload))); err == nil {
		t.Fatal("flagged Count-Min frame accepted")
	}
	if _, after, err := c.PullFrame("cm"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused push changed the slot (%v)", err)
	}
}

// TestWriteRejectsNonCanonicalFrame: a state has one frame. A frame
// that spells a value its encoder never would — a uvarint padded with
// a last byte of 0 (an mg k of 16 as 0x90 0x00), a bool byte of 2
// (an HLL's kind flag, which the encoder writes as 1) — is refused by
// the codec: PUSH answers an ERR that names the fault, and the slot's
// PULL bytes stay what they were.
func TestWriteRejectsNonCanonicalFrame(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	m := mg.New(16)
	m.UpdateBatch(gen.NewZipf(500, 1.1, 3).Stream(10000))
	h := distinct.NewHLL(12, 7)
	for x := range core.Item(1000) {
		h.Update(x)
	}
	for _, tc := range []struct {
		kind  string
		s     encoding.BinaryMarshaler
		fault string // what the ERR names
		bend  func(payload []byte) []byte
	}{
		{"mg", m, "uvarint padded", func(p []byte) []byte {
			if p[0] != 16 {
				t.Fatalf("mg payload opens with k = %d, want 16", p[0])
			}
			return append([]byte{0x90, 0x00}, p[1:]...)
		}},
		{"hll", h, "bool byte", func(p []byte) []byte {
			if p[0] != 1 {
				t.Fatalf("hll payload opens with flag %d, want 1", p[0])
			}
			return append([]byte{2}, p[1:]...)
		}},
	} {
		if _, err := c.Push(tc.kind, tc.kind, tc.s); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		_, before, err := c.PullFrame(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		frame, _ := tc.s.MarshalBinary()
		kind, _ := codec.PeekKind(frame)
		payload, err := codec.DecodeFrame(kind, frame)
		if err != nil {
			t.Fatal(err)
		}
		bent := codec.EncodeFrame(kind, tc.bend(bytes.Clone(payload)))
		if _, err := c.Push(tc.kind, tc.kind, rawSummary(bent)); err == nil {
			t.Fatalf("%s: non-canonical frame accepted", tc.kind)
		} else if !strings.Contains(err.Error(), tc.fault) {
			t.Errorf("%s: refused with %q, which does not name the %s", tc.kind, err, tc.fault)
		}
		if _, after, err := c.PullFrame(tc.kind); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s: refused push changed the slot (%v)", tc.kind, err)
		}
	}
}

// TestWriteRejectsWrappedQDigestWeight: a q-digest frame whose node
// counts wrap 2^64 to exactly n — two siblings counting 2^64−1 and 3
// under n = 2 — is refused by its decoder: PUSH answers ERR and the
// slot's PULL bytes stay what they were.
func TestWriteRejectsWrappedQDigestWeight(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	d := qdigest.New(4, 100)
	d.Update(3, 1)
	d.Update(9, 1)
	if _, err := c.Push("qd", "qdigest", d); err != nil {
		t.Fatal(err)
	}
	_, before, err := c.PullFrame("qd")
	if err != nil {
		t.Fatal(err)
	}
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	for _, v := range []uint64{4, 100, 2, 2, 16, math.MaxUint64, 17, 3} { // logU, k, n, nodes, (id, count)...
		w.Uint64(v)
	}
	wrapped := codec.EncodeFrame(codec.KindQDigest, w.Bytes())
	if _, err := c.Push("qd", "qdigest", rawSummary(wrapped)); err == nil {
		t.Fatal("q-digest frame whose counts wrap 2^64 accepted")
	}
	if _, after, err := c.PullFrame("qd"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused push changed the slot (%v)", err)
	}
}

// TestWriteRejectsNaNSample: a quantile or bottom-k frame holding a
// NaN sample — which no Update can insert, and which would answer
// quantile queries with NaN — is refused by its decoder: PUSH answers
// ERR and the slot's bytes stay what they were.
func TestWriteRejectsNaNSample(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nan := math.NaN()
	// A plain quantile frame of block size 4 and weight 10: a partial of
	// two and one level-1 block.
	quantile := func(v float64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Bool(false)
		w.Int(4)
		w.Uint64(10)
		w.Uint64(1)
		w.Int(2)
		w.Float64(1)
		w.Float64(v)
		w.Int(2)
		w.Int(0)
		w.Int(4)
		for _, x := range []float64{1, 3, 5, 7} {
			w.Float64(x)
		}
		return codec.EncodeFrame(codec.KindRandQuant, w.Bytes())
	}
	// A bottom-k frame of k = 4 holding one tagged sample.
	bottomk := func(v float64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Int(4)
		w.Uint64(1)
		w.Uint64(1)
		w.Int(1)
		w.Uint64(5)
		w.Float64(v)
		return codec.EncodeFrame(codec.KindBottomK, w.Bytes())
	}
	for _, tc := range []struct {
		kind  string
		frame func(float64) []byte
	}{{"quantile", quantile}, {"bottomk", bottomk}} {
		if _, err := c.Push(tc.kind, tc.kind, rawSummary(tc.frame(2))); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		_, before, err := c.PullFrame(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Push(tc.kind, tc.kind, rawSummary(tc.frame(nan))); err == nil {
			t.Fatalf("%s: frame with a NaN sample accepted", tc.kind)
		}
		if _, after, err := c.PullFrame(tc.kind); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s: refused push changed the slot (%v)", tc.kind, err)
		}
	}
}

// TestWriteRejectsHLLRegisterAboveMaxRho: an HLL register is at most
// 65−p, the largest rho an update can write. A PUSH of a p = 12 frame
// holding a 64 answers ERR and leaves the slot's PULL bytes as they
// were; the same frame with 53 in that register is accepted.
func TestWriteRejectsHLLRegisterAboveMaxRho(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hll := func(reg uint64) []byte {
		w := codec.GetBuffer()
		defer codec.PutBuffer(w)
		w.Bool(true)
		w.Int(12)
		w.Uint64(1) // seed
		w.Uint64(3) // n
		w.Uint64(reg)
		for i := 1; i < 1<<12; i++ {
			w.Uint64(uint64(i % 3))
		}
		return codec.EncodeFrame(codec.KindHLL, w.Bytes())
	}
	if _, err := c.Push("card", "hll", rawSummary(hll(53))); err != nil {
		t.Fatalf("register 53 at p = 12: %v", err)
	}
	_, before, err := c.PullFrame("card")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("card", "hll", rawSummary(hll(64))); err == nil {
		t.Fatal("register 64 at p = 12 (max 53) accepted")
	}
	if _, after, err := c.PullFrame("card"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused push changed the slot (%v)", err)
	}
}

// TestWriteRefusesWeightOverflow: two accepted pushes of weight 2^63
// would sum the slot's N to 0, and the slot's frame would then fail its
// own decoder — every later PULL of it an error. The second push
// answers ERR and leaves the slot as the first left it.
func TestWriteRefusesWeightOverflow(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const heavy = 1 << 63
	for kind, s := range map[string]encoding.BinaryMarshaler{
		"qdigest": func() *qdigest.Digest { d := qdigest.New(8, 4); d.Update(3, heavy); return d }(),
		"mg":      func() *mg.Summary { m := mg.New(8); m.Update(1, heavy); return m }(),
	} {
		if n, err := c.Push(kind, kind, s); err != nil || n != heavy {
			t.Fatalf("%s: first push: N=%d, %v", kind, n, err)
		}
		if _, err := c.Push(kind, kind, s); err == nil {
			t.Fatalf("%s: a push that wraps the slot's N was accepted", kind)
		}
		_, frame, err := c.PullFrame(kind)
		if err != nil {
			t.Fatalf("%s: PULL after the refused push: %v", kind, err)
		}
		ent, _ := registry.ByName(kind)
		got, err := ent.Decode(frame)
		if err != nil {
			t.Fatalf("%s: the slot's frame no longer decodes: %v", kind, err)
		}
		if n := ent.N(got); n != heavy {
			t.Fatalf("%s: slot N=%d after the refused push, want 2^63", kind, n)
		}
	}
}
