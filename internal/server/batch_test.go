package server

import (
	"bufio"
	"encoding"
	"fmt"
	"net"
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
// a mix of PUSH and PUSHB and asserts the merged total equals the sum
// of everything pushed — the slot lock must serialize batch merges
// correctly. Run under -race (the Makefile's check target does).
func TestConcurrentPushStress(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	const (
		workers    = 8
		rounds     = 20
		perBatch   = 5
		itemWeight = 3
	)
	var wg sync.WaitGroup
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
				if r%2 == 0 {
					batch := make([]encoding.BinaryMarshaler, perBatch)
					for i := range batch {
						s := mg.New(32)
						s.Update(core.Item(id*1000+i), itemWeight)
						batch[i] = s
					}
					if _, err := c.PushBatch("stress", "mg", batch); err != nil {
						t.Errorf("worker %d round %d: PushBatch: %v", id, r, err)
						return
					}
				} else {
					s := mg.New(32)
					for i := 0; i < perBatch; i++ {
						s.Update(core.Item(id*1000+i), itemWeight)
					}
					if _, err := c.Push("stress", "mg", s); err != nil {
						t.Errorf("worker %d round %d: Push: %v", id, r, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var merged mg.Summary
	if _, err := decoded(&merged)(c.PullFrame("stress")); err != nil {
		t.Fatal(err)
	}
	want := uint64(workers * rounds * perBatch * itemWeight)
	if merged.N() != want {
		t.Fatalf("merged N=%d, want %d", merged.N(), want)
	}
	infos, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	wantPushes := uint64(workers * (rounds/2*perBatch + (rounds - rounds/2)))
	if len(infos) != 1 || infos[0].Pushes != wantPushes {
		t.Fatalf("stat = %+v, want %d pushes", infos, wantPushes)
	}
}
