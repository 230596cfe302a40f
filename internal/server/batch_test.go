package server

import (
	"bufio"
	"encoding"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mg"
)

func TestPushBatchRoundTrip(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := make([]encoding.BinaryMarshaler, 10)
	var want uint64
	for i := range batch {
		s := mg.New(16)
		s.Update(core.Item(i), uint64(i+1))
		s.Update(7, 5)
		want += uint64(i+1) + 5
		batch[i] = s
	}
	n, err := c.PushBatch("flows", "mg", batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("PushBatch returned n=%d, want %d", n, want)
	}

	var got mg.Summary
	if _, err := decoded(&got)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if got.N() != want {
		t.Fatalf("pulled N=%d, want %d", got.N(), want)
	}

	// The batch counts one push per frame.
	infos, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Pushes != uint64(len(batch)) {
		t.Fatalf("stat = %+v, want 1 slot with %d pushes", infos, len(batch))
	}
}

func TestPushBatchErrors(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	// Unknown kind: the frames must be consumed and the connection must
	// stay usable.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	s := mg.New(4)
	s.Update(1, 1)
	frame, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "PUSHB slot nosuch 2\n%d\n", len(frame))
	conn.Write(frame)
	fmt.Fprintf(conn, "%d\n", len(frame))
	conn.Write(frame)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR unknown kind") {
		t.Fatalf("got %q, want unknown-kind error", line)
	}
	// Stream still in sync: a valid PUSHB on the same connection works.
	fmt.Fprintf(conn, "PUSHB slot mg 1\n%d\n", len(frame))
	conn.Write(frame)
	if line, err = r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK 1") {
		t.Fatalf("got %q, want OK 1", line)
	}

	// A bad count cannot be recovered from; the server replies ERR and
	// drops the connection.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	r2 := bufio.NewReader(conn2)
	fmt.Fprintf(conn2, "PUSHB slot mg 0\n")
	if line, err = r2.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR bad batch count") {
		t.Fatalf("got %q, want bad-batch-count error", line)
	}
	if _, err := r2.ReadString('\n'); err == nil {
		t.Fatal("connection survived a bad batch count")
	}
}

// TestConcurrentPushStress hammers one slot from many goroutines with
// a mix of PUSH and PUSHB and holds the write path to its one meaning
// of "OK <n>": every write adds the same weight, and the slot lock
// absorbs each write whole, so the replies across all clients are
// exactly the multiples of that weight up to the total — each the
// merged slot's N right after its write — and the final reply total is
// STAT's N and PULL's N. METRICS conserves kind.push = kind.merge +
// installed. Run under -race (the Makefile's check target does).
func TestConcurrentPushStress(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	const (
		k          = 32
		workers    = 8
		rounds     = 20
		perBatch   = 5
		itemWeight = 3
		perWrite   = perBatch * itemWeight // a PUSHB and a PUSH weigh the same
	)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		replies []uint64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("worker %d: %v", id, err)
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				var n uint64
				if r%2 == 0 {
					batch := make([]encoding.BinaryMarshaler, perBatch)
					for i := range batch {
						s := mg.New(k)
						s.Update(core.Item(id*1000+i), itemWeight)
						batch[i] = s
					}
					if n, err = c.PushBatch("stress", "mg", batch); err != nil {
						t.Errorf("worker %d round %d: PushBatch: %v", id, r, err)
						return
					}
				} else {
					s := mg.New(k)
					for i := 0; i < perBatch; i++ {
						s.Update(core.Item(id*1000+i), itemWeight)
					}
					if n, err = c.Push("stress", "mg", s); err != nil {
						t.Errorf("worker %d round %d: Push: %v", id, r, err)
						return
					}
				}
				mu.Lock()
				replies = append(replies, n)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	const writes = workers * rounds
	const want = uint64(writes * perWrite)
	sort.Slice(replies, func(i, j int) bool { return replies[i] < replies[j] })
	if len(replies) != writes {
		t.Fatalf("%d replies, want %d", len(replies), writes)
	}
	for i, n := range replies {
		if n != uint64(i+1)*perWrite {
			t.Fatalf("sorted reply %d = %d, want %d: a reply is not the slot's N after its write", i, n, uint64(i+1)*perWrite)
		}
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var merged mg.Summary
	if _, err := decoded(&merged)(c.PullFrame("stress")); err != nil {
		t.Fatal(err)
	}
	if merged.N() != want {
		t.Fatalf("merged N=%d, want %d", merged.N(), want)
	}
	infos, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	wantPushes := uint64(workers * (rounds/2*perBatch + (rounds - rounds/2)))
	if len(infos) != 1 || infos[0].N != want || infos[0].Pushes != wantPushes {
		t.Fatalf("stat = %+v, want n=%d and %d pushes", infos, want, wantPushes)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if push, rest := m["kind.push.mg"], m["kind.merge.mg"]+1; push != wantPushes || push != rest {
		t.Fatalf("kind.push.mg = %d, kind.merge.mg + installed = %d, want both %d", push, rest, wantPushes)
	}
}
