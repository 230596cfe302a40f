package server

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

// TestWindowedPullIsPlainPull: a slot's all-time state does not depend
// on its node being windowed. For every family, the same frames pushed
// in the same order to a plain node and to a windowed one — with epoch
// turn-overs on the windowed node between pushes — PULL the same bytes
// after every step. And the windowed node's live-range QWIN is the
// reduce of its sealed cover followed by the live epoch's frame: the
// fold, in push order, of the frames pushed since the last turn-over.
func TestWindowedPullIsPlainPull(t *testing.T) {
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			plain, windowed := NewNode(), NewNode()
			if err := windowed.SetWindow(window.Ladder{Fan: 2, Levels: 3}, 0); err != nil {
				t.Fatal(err)
			}
			decode := func(frame []byte) any {
				v, err := ent.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			var live any // the live epoch's fold, nil right after a turn-over
			for step := range 14 {
				frame, err := ent.Encode(ent.Example(37*step%300 + 20))
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []*Node{plain, windowed} {
					if _, err := n.Ingest("s", ent, decode(frame)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if live == nil {
					live = decode(frame)
				} else if err := ent.Merge(live, decode(frame)); err != nil {
					t.Fatal(err)
				}
				_, want, err := plain.Encoded("s")
				if err != nil {
					t.Fatal(err)
				}
				if _, got, err := windowed.Encoded("s"); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d: windowed PULL %d bytes (%v), plain PULL %d bytes", step, len(got), err, len(want))
				}

				sl, _ := windowed.lookupSlot([]byte("s"))
				cov, err := sl.plane.Cover(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				pieces := make([][]byte, 0, len(cov.Segments)+1)
				for _, seg := range cov.Segments {
					pieces = append(pieces, seg.Frame)
				}
				liveFrame, err := ent.Encode(live)
				if err != nil {
					t.Fatal(err)
				}
				pieces = append(pieces, liveFrame)
				want = liveFrame
				if len(pieces) > 1 {
					if want, err = window.ReduceEncoded(ent, pieces); err != nil {
						t.Fatal(err)
					}
				}
				if _, got, err := windowed.WindowEncoded("s", 0, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d: live-range QWIN %d bytes (%v), cover + live epoch reduce to %d bytes", step, len(got), err, len(want))
				}
				if step%3 != 1 {
					windowed.AdvanceWindows()
					live = nil
				}
			}
		})
	}
}

// TestWindowedPushAllocs: feeding a slot's roll-up plane costs a push
// no allocation. The same decode + Node.Ingest goes to a plain node and
// to a windowed one, once with an epoch turn-over before every push —
// so each is its epoch's first, which the live epoch adopts — and once
// without, so each merges into the live epoch. Only the push is
// counted, not the turn-over's seal. Skipped under -race: see
// raceEnabled.
func TestWindowedPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race: pooled scratch is sometimes made anew")
	}
	ent, _ := registry.ByName("mg")
	frame, err := ent.Encode(ent.Example(100))
	if err != nil {
		t.Fatal(err)
	}
	push := func(n *Node) {
		sc := ent.GetScratch()
		if err := ent.DecodeInto(sc, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Ingest("s", ent, sc); err != nil {
			t.Fatal(err)
		}
	}
	// perPush is testing.AllocsPerRun for the push alone.
	perPush := func(n *Node, turn bool) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 200
		var before, after runtime.MemStats
		var total uint64
		for i := 0; i <= runs; i++ {
			if turn {
				n.AdvanceWindows()
			}
			runtime.ReadMemStats(&before)
			push(n)
			runtime.ReadMemStats(&after)
			if i > 0 { // the first run warms up, as in AllocsPerRun
				total += after.Mallocs - before.Mallocs
			}
		}
		return total / runs
	}
	plain, windowed := NewNode(), NewNode()
	if err := windowed.SetWindow(window.Ladder{Fan: 4, Levels: 2}, 0); err != nil {
		t.Fatal(err)
	}
	push(plain) // the installing pushes
	push(windowed)
	for _, turn := range []bool{true, false} {
		want := perPush(plain, turn)
		if got := perPush(windowed, turn); got > want {
			t.Errorf("push into a windowed slot (epoch turned over before each: %v): %d allocs, plain slot %d", turn, got, want)
		}
	}
}

// TestLiveEpochIsFoldOfPushes: a windowed slot's live epoch is the fold
// of its epoch's pushes, however they reached it — cloned from the
// slot's installing push, adopted as an epoch's first, or merged in.
// For every family, random runs of pushes (empty epochs among them) go
// to a windowed node with a turn-over between runs. After every push
// the live epoch's QWIN, and after every turn-over the level-0 segment
// it sealed, must byte-equal the reference: the registry decode of the
// epoch's first frame, the rest merged in push order, encoded. PULL
// must stay the same fold over every push: the live epoch never shares
// state with the slot.
func TestLiveEpochIsFoldOfPushes(t *testing.T) {
	for k, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k) + 1))
			n := NewNode()
			if err := n.SetWindow(window.Ladder{Fan: 2, Levels: 3}, 0); err != nil {
				t.Fatal(err)
			}
			fold := func(acc any, frame []byte) any {
				v, err := ent.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				if acc == nil {
					return v
				}
				if err := ent.Merge(acc, v); err != nil {
					t.Fatal(err)
				}
				return acc
			}
			encode := func(v any) []byte {
				frame, err := ent.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				return frame
			}
			var all any
			for range 12 {
				epoch := n.Epoch()
				var live any // the reference fold of this epoch's pushes
				for range rng.Intn(4) {
					frame := encode(ent.Example(rng.Intn(400) + 1))
					sc := ent.GetScratch()
					if err := ent.DecodeInto(sc, frame); err != nil {
						t.Fatal(err)
					}
					if _, err := n.Ingest("s", ent, sc); err != nil {
						t.Fatal(err)
					}
					live, all = fold(live, frame), fold(all, frame)
					want := encode(live)
					if _, got, err := n.WindowEncoded("s", epoch, epoch); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("epoch %d: live QWIN %d bytes (%v), fold of its pushes %d bytes", epoch, len(got), err, len(want))
					}
					if _, got, err := n.Encoded("s"); err != nil || !bytes.Equal(got, encode(all)) {
						t.Fatalf("epoch %d: PULL is not the fold of every push (%v)", epoch, err)
					}
				}
				n.AdvanceWindows()
				sl, ok := n.lookupSlot([]byte("s"))
				if !ok {
					continue // nothing pushed yet
				}
				cov, err := sl.plane.Cover(epoch, epoch)
				switch {
				case err != nil:
					t.Fatalf("epoch %d: %v", epoch, err)
				case live == nil && len(cov.Segments) != 0:
					t.Fatalf("empty epoch %d sealed %d segments", epoch, len(cov.Segments))
				case live != nil && (len(cov.Segments) != 1 || !bytes.Equal(cov.Segments[0].Frame, encode(live))):
					t.Fatalf("epoch %d: sealed level-0 segment is not the fold of its pushes", epoch)
				}
			}
		})
	}
}
