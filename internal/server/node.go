package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/window"
)

// errSlotEmpty reports a read of a slot that exists but holds nothing;
// emptySlot attaches the slot name. The cluster fan-in treats it (like
// errNoSlot) as "this peer contributes nothing".
var errSlotEmpty = errors.New("is empty")

func emptySlot(name string) error { return fmt.Errorf("slot %q %w", name, errSlotEmpty) }

// errNoSlot reports an operation on a slot that was never pushed to.
var errNoSlot = errors.New("no such slot")

// slot is one named aggregation target.
type slot struct {
	mu     sync.Mutex
	ent    *registry.Entry // set once, under mu, by the first push
	all    window.Acc      // the all-time summary; guarded by mu
	pushes atomic.Uint64   // frames taken in

	// plane is the slot's multi-resolution roll-up plane, bound with
	// ent on windowed nodes (SetWindow); nil otherwise. Guarded by mu
	// for binding; the plane itself is internally synchronized.
	plane *window.Plane
}

// frame encodes the slot's Acc under sl.mu: the PULL slow path.
func (sl *slot) frame() ([]byte, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.all.Value() == nil {
		return nil, errSlotEmpty
	}
	return sl.all.Frame(sl.ent)
}

// kindCounters is one family's operation tally on a node. Counters are
// monotone and read lock-free by the METRICS command.
type kindCounters struct {
	pushes atomic.Uint64 // frames ingested (PUSH + each PUSHB frame)
	pulls  atomic.Uint64 // encoded serves (PULL, QWIN and peer fan-in reads)
	merges atomic.Uint64 // registry merges executed on the way into a slot
}

// SlotRow is one slot's STAT view.
type SlotRow struct {
	Name   string
	Kind   string
	N      uint64
	Pushes uint64
}

// Node is the slot/registry core of the aggregation plane, with no
// network attached: a named slot table, each slot's versioned
// accumulator serving encoded reads, the optional per-slot roll-up planes,
// and per-kind operation counters. The network Server layers the wire
// protocol over exactly these methods, and the cluster fan-in reuses
// them for its local share — one process can act as ingest node,
// aggregator, or both without duplicating slot state.
type Node struct {
	mu    sync.Mutex
	slots map[string]*slot // guarded by mu

	// windowed nodes (SetWindow) give every slot a roll-up plane with
	// this ladder shape; winTick > 0 additionally drives the epoch
	// ticker (owned by the Server).
	windowed  bool
	winLadder window.Ladder
	winTick   time.Duration

	// winEpoch is the node-wide live epoch sequence: it starts at 1 and
	// advances with AdvanceWindows, and every plane follows it
	// (window.Plane.AdvanceTo), whenever it was bound,
	// so one wall-clock origin + tick maps times to epochs for every
	// slot regardless of when the slot first appeared.
	winEpoch atomic.Uint64
	// sealErrs counts plane Advances that returned an error — a seal or
	// a roll-up that failed — for METRICS (window.seal_errors).
	sealErrs atomic.Uint64

	// stats is the per-kind operation tally, indexed by wire tag.
	stats [codec.KindCount]kindCounters
}

// NewNode returns a node with no slots.
func NewNode() *Node {
	n := &Node{slots: make(map[string]*slot)}
	n.winEpoch.Store(1)
	return n
}

// SetIngestFront does nothing: every write takes the one direct path.
// Kept only because benchmark/probe.go calls it (ROADMAP item 1h
// deletes it with that caller).
func (n *Node) SetIngestFront(lanes int, tick time.Duration) {}

// SetWindow enables windowed mode (off by default): every slot's
// pushes additionally feed a per-slot multi-resolution roll-up plane
// with the given ladder shape, served by QWIN. The zero Ladder selects
// window.DefaultLadder. tick > 0 asks the serving layer to start the
// epoch ticker; tick <= 0 leaves epoch turn-over to AdvanceWindows —
// the deterministic shape tests use. An invalid ladder is rejected here
// (the node stays unwindowed): bound per slot it would fail silently
// and every QWIN would answer "slot is empty", which a cluster fan-in
// counts as no data. Call before serving.
func (n *Node) SetWindow(l window.Ladder, tick time.Duration) error {
	if err := l.Validate(); err != nil {
		return err
	}
	n.windowed = true
	n.winLadder = l
	n.winTick = tick
	return nil
}

// Epoch returns the node-wide live window epoch (1 before the first
// AdvanceWindows).
func (n *Node) Epoch() uint64 { return n.winEpoch.Load() }

// counters returns the tally row for a family.
func (n *Node) counters(ent *registry.Entry) *kindCounters {
	return &n.stats[ent.Kind()]
}

// getSlot returns the named slot, creating it if needed. The name is
// copied only when the slot is created.
func (n *Node) getSlot(name []byte) *slot {
	n.mu.Lock()
	defer n.mu.Unlock()
	sl, ok := n.slots[string(name)]
	if !ok {
		sl = &slot{}
		n.slots[string(name)] = sl
	}
	return sl
}

// lookupSlot returns the named slot without creating it.
func (n *Node) lookupSlot(name []byte) (*slot, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sl, ok := n.slots[string(name)]
	return sl, ok
}

// snapshotSlots returns the current slot set; the slice is private to
// the caller.
func (n *Node) snapshotSlots() []*slot {
	n.mu.Lock()
	sls := make([]*slot, 0, len(n.slots))
	for _, sl := range n.slots {
		sls = append(sls, sl)
	}
	n.mu.Unlock()
	return sls
}

// bindLocked fixes the slot's family on first contact and rejects a
// push of any other family. On windowed nodes the first contact also
// creates the slot's roll-up plane, so it exists from the first push
// on, at the node-wide epoch: every slot stays on one epoch timeline
// (see AdvanceWindows for a bind that races a turn-over).
func (n *Node) bindLocked(sl *slot, name []byte, ent *registry.Entry) error {
	if sl.ent == nil {
		sl.ent = ent
		if n.windowed {
			if pl, err := window.NewPlane(ent, nil, n.winLadder); err == nil { // SetWindow validated the ladder
				_ = pl.AdvanceTo(n.winEpoch.Load()) // a fresh plane seals nothing
				sl.plane = pl
			}
		}
	} else if sl.ent != ent {
		return fmt.Errorf("slot %q holds kind %q", string(name), sl.ent.Name())
	}
	return nil
}

// ingestLocked is the one step that puts a summary into a bound slot,
// run under sl.mu once per pushed frame; ownership of incoming ends
// here. The slot installs its first push and keeps it, so the plane
// gets a clone of that one, once per slot lifetime. A later push is
// only read by the slot's merge, so it goes on to the plane itself:
// adopted by an empty live epoch, or merged and recycled. After a
// failed merge, into the slot or the live epoch, incoming may alias the
// merged state and is dropped unrecycled (Acc.Fold).
func (n *Node) ingestLocked(sl *slot, incoming any) error {
	installed, err := sl.all.Fold(sl.ent, incoming)
	if err != nil {
		return err
	}
	if installed {
		if sl.plane != nil {
			_ = sl.plane.AbsorbClone(incoming)
		}
		return nil
	}
	n.counters(sl.ent).merges.Add(1)
	if sl.plane != nil {
		if consumed, err := sl.plane.Absorb(incoming); consumed || err != nil {
			return nil
		}
	}
	sl.ent.PutScratch(incoming)
	return nil
}

// recycle returns decoded summaries nothing took ownership of to their
// family's scratch pool.
func recycle(ent *registry.Entry, unused []any) {
	for _, v := range unused {
		ent.PutScratch(v)
	}
}

// Ingest is IngestBatch of one.
func (n *Node) Ingest(name string, ent *registry.Entry, incoming any) (uint64, error) {
	return n.IngestBatch(name, ent, []any{incoming}, 0)
}

// IngestBatch decodes nothing: it takes already-decoded summaries of
// ent's family and absorbs them one by one into the named slot under a
// single acquisition of the slot lock, binding the slot's kind on first
// contact — the one write path, whether the frames arrived alone or in
// a batch. The returned total is the slot's weight afterwards; frames
// preceding a failed merge stay merged and the error reports the
// failing index. Ownership of every element transfers to the node: each
// is installed, recycled through the registry pool, or (after a failed
// merge) dropped. token is unused; it is kept only because benchmark/
// passes one (ROADMAP item 1h drops it with those callers).
func (n *Node) IngestBatch(name string, ent *registry.Entry, decoded []any, token uint64) (uint64, error) {
	return n.ingestBatch([]byte(name), ent, decoded)
}

// ingestBatch is IngestBatch for a name in bytes, the server's own.
func (n *Node) ingestBatch(name []byte, ent *registry.Entry, decoded []any) (uint64, error) {
	sl := n.getSlot(name)
	sl.mu.Lock()
	if err := n.bindLocked(sl, name, ent); err != nil {
		sl.mu.Unlock()
		recycle(ent, decoded)
		return 0, err
	}
	done := 0 // frames absorbed before the first failure
	var err error
	for ; done < len(decoded); done++ {
		if err = n.ingestLocked(sl, decoded[done]); err != nil {
			break
		}
	}
	total := ent.N(sl.all.Value())
	sl.mu.Unlock()
	sl.pushes.Add(uint64(done)) // for STAT and METRICS
	n.counters(ent).pushes.Add(uint64(done))
	if err != nil {
		recycle(ent, decoded[done+1:])
		return 0, fmt.Errorf("merge frame %d/%d: %v", done+1, len(decoded), err)
	}
	return total, nil
}

// AdvanceWindows advances the node-wide epoch sequence and then every
// windowed slot's plane to it, sealing each live epoch (roll-ups
// included: they are part of the seal). The epoch ticker calls this
// every tick; tests call it directly for deterministic epochs.
//
// The node's epoch moves first, so a plane bound while this runs is
// never left behind: one bound after the bump starts at the new epoch,
// and one bound before it belongs to a slot the snapshot holds, so it
// is advanced here. Advancing to the epoch rather than by one leaves a
// plane that is already there as it is, and two overlapping calls
// converge on the node's epoch.
func (n *Node) AdvanceWindows() {
	to := n.winEpoch.Add(1)
	for _, sl := range n.snapshotSlots() {
		sl.mu.Lock()
		pl := sl.plane
		sl.mu.Unlock()
		// The plane's epoch turns over even when sealing or rolling up
		// fails; nothing retains the error but this count.
		if pl != nil && pl.AdvanceTo(to) != nil {
			n.sealErrs.Add(1)
		}
	}
}

// Drain is the graceful-shutdown seal: on windowed nodes the live
// window epoch is sealed, so the roll-up history holds every push a
// reply acknowledged.
func (n *Node) Drain() {
	if n.windowed {
		n.AdvanceWindows()
	}
}

// Encoded returns the named slot's kind and wire frame.
func (n *Node) Encoded(name string) (string, []byte, error) {
	return n.encoded([]byte(name))
}

// encoded is Encoded for a name in bytes, the server's own: the slot
// Acc's published frame while it is valid (two atomic loads, no lock),
// else sl.frame. sl.ent needs no lock here: it is set before the Acc
// can hold anything. Errors format a copy, string(name), so that name
// does not escape and the byte conversions of the string-named callers
// stay off the heap.
func (n *Node) encoded(name []byte) (string, []byte, error) {
	sl, ok := n.lookupSlot(name)
	if !ok {
		return "", nil, fmt.Errorf("%w %q", errNoSlot, string(name))
	}
	data, ok := sl.all.Cached()
	if !ok {
		var err error
		if data, err = sl.frame(); errors.Is(err, errSlotEmpty) {
			return "", nil, emptySlot(string(name))
		} else if err != nil {
			return "", nil, fmt.Errorf("encoding: %w", err)
		}
	}
	n.counters(sl.ent).pulls.Add(1)
	return sl.ent.Name(), data, nil
}

// WindowEncoded answers the named slot's epoch range [from, to] from
// its roll-up plane (0 = oldest retained / through the live epoch).
func (n *Node) WindowEncoded(name string, from, to uint64) (string, []byte, error) {
	return n.windowEncoded([]byte(name), from, to)
}

// windowEncoded is WindowEncoded for a name in bytes, the server's own.
func (n *Node) windowEncoded(name []byte, from, to uint64) (string, []byte, error) {
	sl, ok := n.lookupSlot(name)
	if !ok {
		return "", nil, fmt.Errorf("%w %q", errNoSlot, string(name))
	}
	sl.mu.Lock()
	pl, ent := sl.plane, sl.ent // a plane is bound together with its kind
	sl.mu.Unlock()
	if pl == nil {
		if !n.windowed {
			return "", nil, errors.New("windowed queries disabled (start with -window)")
		}
		return "", nil, emptySlot(string(name))
	}
	frame, err := pl.QueryEncoded(from, to)
	if err != nil {
		return "", nil, err
	}
	n.counters(ent).pulls.Add(1)
	return ent.Name(), frame, nil
}

// Rows returns one STAT row per slot in slot-name order, each
// formatted under its slot's lock.
func (n *Node) Rows() []SlotRow {
	type named struct {
		name string
		sl   *slot
	}
	n.mu.Lock()
	slots := make([]named, 0, len(n.slots))
	for name, sl := range n.slots {
		slots = append(slots, named{name, sl})
	}
	n.mu.Unlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].name < slots[j].name })
	rows := make([]SlotRow, 0, len(slots))
	for _, s := range slots {
		row := SlotRow{Name: s.name, Kind: "-"}
		s.sl.mu.Lock()
		if v := s.sl.all.Value(); v != nil {
			row.Kind = s.sl.ent.Name()
			row.N = s.sl.ent.N(v)
			row.Pushes = s.sl.pushes.Load()
		}
		s.sl.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}

// Reset drops the named slot; its window history dies with it.
func (n *Node) Reset(name string) {
	n.mu.Lock()
	delete(n.slots, name)
	n.mu.Unlock()
}

// CloseSlots does nothing: planes own nothing to stop. Kept only
// because benchmark/probe.go and benchmark/wl_window.go call it
// (ROADMAP item 1 deletes it with them).
func (n *Node) CloseSlots() {}

// KindStats is one family's METRICS view.
type KindStats struct {
	Kind   string
	Pushes uint64
	Pulls  uint64
	Merges uint64
}

// Stats returns the per-kind operation tally in registry order.
func (n *Node) Stats() []KindStats {
	ents := registry.Entries()
	out := make([]KindStats, 0, len(ents))
	for _, ent := range ents {
		c := n.counters(ent)
		out = append(out, KindStats{
			Kind:   ent.Name(),
			Pushes: c.pushes.Load(),
			Pulls:  c.pulls.Load(),
			Merges: c.merges.Load(),
		})
	}
	return out
}
