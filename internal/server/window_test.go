package server

import (
	"encoding"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/registry"
	"repro/internal/window"
)

// startWindowedServer returns a running windowed server (manual epoch
// control via AdvanceWindows), its address, and a stop function.
func startWindowedServer(t *testing.T, l window.Ladder, tick time.Duration) (*Server, string, func()) {
	t.Helper()
	s := New()
	if err := s.SetWindow(l, tick); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return s, addr, func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func pushMG(t *testing.T, c *Client, slot string, item, weight uint64) {
	t.Helper()
	s := mg.New(16)
	s.Update(core.Item(item), weight)
	if _, err := c.Push(slot, "mg", s); err != nil {
		t.Fatal(err)
	}
}

func TestQueryWindowRoundTrip(t *testing.T) {
	s, addr, stop := startWindowedServer(t, window.Ladder{Fan: 4, Levels: 2}, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Three epochs of pushes: weights 100, 200, 300.
	for e, w := range []uint64{100, 200, 300} {
		pushMG(t, c, "flows", uint64(e+1), w)
		s.AdvanceWindows()
	}
	pushMG(t, c, "flows", 9, 50) // live epoch

	// Full history through the live epoch.
	var got mg.Summary
	kind, err := decoded(&got)(c.QueryWindowFrame("flows", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if kind != "mg" {
		t.Fatalf("kind = %q", kind)
	}
	if got.N() != 650 {
		t.Fatalf("QWIN [0,0] N = %d, want 650", got.N())
	}

	// Sealed sub-range only.
	var mid mg.Summary
	if _, err := decoded(&mid)(c.QueryWindowFrame("flows", 2, 3)); err != nil {
		t.Fatal(err)
	}
	if mid.N() != 500 {
		t.Fatalf("QWIN [2,3] N = %d, want 500", mid.N())
	}

	// The registry-dispatched decode agrees.
	_, frame, err := c.QueryWindowFrame("flows", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := registry.FromFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ent.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*mg.Summary).N() != 500 {
		t.Fatalf("registry-decoded QWIN N = %d, want 500", v.(*mg.Summary).N())
	}

	// PULL still serves the all-time summary, unchanged by windowing.
	var all mg.Summary
	if _, err := decoded(&all)(c.PullFrame("flows")); err != nil {
		t.Fatal(err)
	}
	if all.N() != 650 {
		t.Fatalf("PULL N = %d, want 650", all.N())
	}
}

func TestQueryWindowErrors(t *testing.T) {
	s, addr, stop := startWindowedServer(t, window.Ladder{Fan: 4, Levels: 2}, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := decoded(&mg.Summary{})(c.QueryWindowFrame("ghost", 0, 0)); err == nil {
		t.Fatal("QWIN on a missing slot succeeded")
	}
	pushMG(t, c, "flows", 1, 10)
	s.AdvanceWindows()
	if _, err := decoded(&mg.Summary{})(c.QueryWindowFrame("flows", 3, 2)); err == nil {
		t.Fatal("QWIN with an inverted range succeeded")
	}
	// A range past the last sealed epoch that excludes the live epoch
	// has nothing to answer with.
	if _, err := decoded(&mg.Summary{})(c.QueryWindowFrame("flows", 2, 2)); err == nil {
		t.Fatal("QWIN over an unsealed empty epoch succeeded")
	}
}

func TestQueryWindowDisabled(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushMG(t, c, "flows", 1, 10)
	if _, err := decoded(&mg.Summary{})(c.QueryWindowFrame("flows", 0, 0)); err == nil {
		t.Fatal("QWIN succeeded on a non-windowed server")
	}
}

// A PUSHB's frames land whole in the live epoch, so once AdvanceWindows
// seals it a QWIN issued after the reply serves the batch. (The test is
// named for the removed ingest front, whose lanes once had to be flushed
// into the plane first.)
func TestQueryWindowWithIngestFront(t *testing.T) {
	s, addr, stop := startWindowedServer(t, window.Ladder{Fan: 4, Levels: 2}, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := make([]encoding.BinaryMarshaler, 0, 4)
	for i := 0; i < 4; i++ {
		sm := mg.New(16)
		sm.Update(core.Item(i), 25)
		batch = append(batch, sm)
	}
	if _, err := c.PushBatch("flows", "mg", batch); err != nil {
		t.Fatal(err)
	}
	s.AdvanceWindows()

	var got mg.Summary
	if _, err := decoded(&got)(c.QueryWindowFrame("flows", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got.N() != 100 {
		t.Fatalf("QWIN [1,1] N = %d, want 100", got.N())
	}
}

// A ladder no plane can be built on is rejected when windowed mode is
// switched on — not swallowed per slot, where every QWIN would answer
// "slot is empty" — and leaves the node unwindowed.
func TestSetWindowRejectsInvalidLadder(t *testing.T) {
	for _, l := range []window.Ladder{
		{Fan: 8, Levels: 0},
		{Fan: 1, Levels: 3},
	} {
		n := NewNode()
		if err := n.SetWindow(l, 0); err == nil {
			t.Errorf("SetWindow(%+v) accepted", l)
		}
		ent, _ := registry.ByName("mg")
		if _, err := n.Ingest("s", ent, ent.Example(10)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := n.WindowEncoded("s", 0, 0); err == nil || !strings.Contains(err.Error(), "windowed queries disabled") {
			t.Errorf("after rejected SetWindow(%+v): QWIN error = %v, want windowed queries disabled", l, err)
		}
	}
	if err := NewNode().SetWindow(window.Ladder{}, 0); err != nil {
		t.Errorf("zero ladder (the default shape) rejected: %v", err)
	}
}

// refusingEntry is a registry entry whose Encode can be made to fail.
type refusingEntry struct {
	*registry.Entry
	refuse bool
}

func (r *refusingEntry) Encode(v any) ([]byte, error) {
	if r.refuse {
		return nil, errors.New("encode refused")
	}
	return r.Entry.Encode(v)
}

// TestSealErrorsReachMetrics: a plane whose seal fails is counted by
// the node and served as window.seal_errors — 0 on a healthy node — and
// the epoch turns over all the same.
func TestSealErrorsReachMetrics(t *testing.T) {
	s, addr, stop := startWindowedServer(t, window.Ladder{Fan: 4, Levels: 2}, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sealErrors := func() uint64 {
		t.Helper()
		m, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		n, ok := m["window.seal_errors"]
		if !ok {
			t.Fatal("window.seal_errors not served by a windowed node")
		}
		return n
	}
	pushMG(t, c, "flows", 1, 10)
	s.AdvanceWindows()
	if n := sealErrors(); n != 0 {
		t.Fatalf("window.seal_errors = %d on a healthy node", n)
	}

	// Swap the slot's plane for one over an entry that refuses to encode.
	ent, _ := registry.ByName("mg")
	bad := &refusingEntry{Entry: ent}
	pl, err := window.NewPlane(bad, nil, window.Ladder{Fan: 4, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.AdvanceTo(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	sl := s.getSlot([]byte("flows"))
	sl.mu.Lock()
	sl.plane = pl
	sl.mu.Unlock()
	pushMG(t, c, "flows", 2, 5)
	bad.refuse = true
	s.AdvanceWindows()
	bad.refuse = false
	if n := sealErrors(); n != 1 {
		t.Fatalf("window.seal_errors = %d after one failed seal, want 1", n)
	}
	if pl.Epoch() != s.Epoch() {
		t.Fatalf("plane epoch %d fell behind the node's %d after a failed seal", pl.Epoch(), s.Epoch())
	}
}

// TestAdvanceWindowsRacingFirstPush: a slot first pushed to while
// AdvanceWindows runs binds its plane in the middle of a turn-over. It
// must end that turn-over on the node's epoch — one behind, it would
// stay behind for good, and its QWIN ranges would name the previous
// tick. The existing slots make each turn-over long enough for first
// pushes to land inside it.
func TestAdvanceWindowsRacingFirstPush(t *testing.T) {
	n := NewNode()
	if err := n.SetWindow(window.Ladder{Fan: 4, Levels: 2}, 0); err != nil {
		t.Fatal(err)
	}
	ent, _ := registry.ByName("mg")
	push := func(name string) {
		s := mg.New(16)
		s.Update(1, 1)
		if _, err := n.Ingest(name, ent, s); err != nil {
			t.Error(err)
		}
	}
	for i := range 2000 {
		push(fmt.Sprintf("old%d", i))
	}
	for round := range 20 {
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.AdvanceWindows()
		}()
		for i := range 200 {
			push(fmt.Sprintf("new%d.%d", round, i))
		}
		<-done
	}
	behind := 0
	for _, sl := range n.snapshotSlots() {
		sl.mu.Lock()
		pl := sl.plane
		sl.mu.Unlock()
		if pl.Epoch() != n.Epoch() {
			behind++
		}
	}
	if behind != 0 {
		t.Fatalf("%d planes off the node's epoch %d", behind, n.Epoch())
	}
}
