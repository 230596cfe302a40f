package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/window"
)

// errSlotEmpty reports a read of a slot that exists but holds nothing;
// emptySlot attaches the slot name. The cluster fan-in treats it (like
// errNoSlot) as "this peer contributes nothing".
var errSlotEmpty = errors.New("is empty")

func emptySlot(name string) error { return fmt.Errorf("slot %q %w", name, errSlotEmpty) }

// errNoSlot reports an operation on a slot that was never pushed to.
var errNoSlot = errors.New("no such slot")

// snapshot is one epoch of a slot's encoded state. data is immutable
// once published: concurrent PULLs write the same bytes to their own
// connections without copying.
type snapshot struct {
	version uint64
	kind    string
	data    []byte
}

// slot is one named aggregation target.
type slot struct {
	mu      sync.Mutex
	ent     *registry.Entry // guarded by mu; set by the first push
	summary any             // guarded by mu
	pushes  atomic.Uint64   // frames taken in

	// version counts mutations. It is bumped under mu after every
	// install/merge and read without mu by the PULL fast path, so a
	// reply-ordered reader can detect staleness with one atomic load.
	version atomic.Uint64
	// snap is the epoch-cached encoding, valid iff snap.version ==
	// version. Published under mu, loaded lock-free.
	snap atomic.Pointer[snapshot]

	// front is the slot's per-lane ingest front, created under mu by the
	// first write once the node has ingest fronting enabled (see
	// SetIngestFront). nil on nodes running the default direct-merge
	// path. pushedN totals the weight acknowledged into the lanes, so a
	// fronted write's reply stays meaningful without flushing.
	front   atomic.Pointer[shard.Front]
	pushedN atomic.Uint64

	// plane is the slot's multi-resolution roll-up plane, bound with
	// ent on windowed nodes (SetWindow); nil otherwise. Guarded by mu
	// for binding; the plane itself is internally synchronized.
	plane *window.Plane
}

// encoded returns the slot's wire encoding, serving the epoch cache
// when it is fresh. The fast path is two atomic loads and no lock; the
// slow path takes sl.mu, re-checks (another puller may have refreshed
// the cache while we waited), encodes, and publishes the snapshot
// before unlocking. Invalidation rule: a snapshot is valid only while
// its version matches the slot's; pushes bump the version, so stale
// bytes are unreachable the instant a push's reply is written.
//
//sketch:hotpath
func (sl *slot) encoded() (string, []byte, error) {
	if snap := sl.snap.Load(); snap != nil && snap.version == sl.version.Load() {
		return snap.kind, snap.data, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.summary == nil {
		return "", nil, errSlotEmpty
	}
	v := sl.version.Load()
	if snap := sl.snap.Load(); snap != nil && snap.version == v {
		return snap.kind, snap.data, nil
	}
	data, err := sl.ent.Encode(sl.summary)
	if err != nil {
		return "", nil, err
	}
	sl.snap.Store(&snapshot{version: v, kind: sl.ent.Name(), data: data})
	return sl.ent.Name(), data, nil
}

// kindCounters is one family's operation tally on a node. Counters are
// monotone and read lock-free by the METRICS command.
type kindCounters struct {
	pushes atomic.Uint64 // frames ingested (PUSH + each PUSHB frame)
	pulls  atomic.Uint64 // encoded serves (PULL, QWIN and peer fan-in reads)
	merges atomic.Uint64 // registry merges executed on the way into a slot
	drops  atomic.Uint64 // acknowledged lane summaries a slot could not absorb
}

// SlotRow is one slot's STAT view.
type SlotRow struct {
	Name   string
	Kind   string
	N      uint64
	Pushes uint64
}

// Node is the slot/registry/ingest-front core of the aggregation
// plane, with no network attached: a named slot table, the
// epoch-versioned snapshot cache serving encoded reads, the optional
// per-lane ingest front, the optional per-slot roll-up planes, and
// per-kind operation counters. The network Server layers the wire
// protocol over exactly these methods, and the cluster fan-in reuses
// them for its local share — one process can act as ingest node,
// aggregator, or both without duplicating slot state.
type Node struct {
	mu    sync.Mutex
	slots map[string]*slot // guarded by mu

	// frontLanes > 0 enables the per-lane ingest front: every write folds
	// into a per-connection lane and the slot absorbs the lanes on the
	// epoch tick (frontTick) or at the next read.
	frontLanes int
	frontTick  time.Duration

	// windowed nodes (SetWindow) give every slot a roll-up plane with
	// this ladder shape; winTick > 0 additionally drives the epoch
	// ticker (owned by the Server).
	windowed  bool
	winLadder window.Ladder
	winTick   time.Duration

	// winEpoch is the node-wide live epoch sequence: it starts at 1 and
	// advances with AdvanceWindows, and every plane bound after the
	// node has already turned epochs over is aligned to it (StartAt),
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

// SetIngestFront enables the per-lane ingest front (off by default).
// With the front on, every write — one frame or a batch — is folded into
// a single summary off any lock and parked in a per-connection lane; the
// slot absorbs the lanes on the epoch tick (every tick) and before any
// read, so concurrent pushers stop contending on the slot lock while
// reads stay read-your-writes. A write's reply then reports the total
// weight acknowledged into the slot so far (monotone) instead of the
// merged N. lanes < 1 selects GOMAXPROCS lanes; tick <= 0 selects 5ms.
// Call before serving.
func (n *Node) SetIngestFront(lanes int, tick time.Duration) {
	if lanes < 1 {
		lanes = runtime.GOMAXPROCS(0)
	}
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	n.frontLanes = lanes
	n.frontTick = tick
}

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

// getSlot returns the named slot, creating it if needed.
func (n *Node) getSlot(name string) *slot {
	n.mu.Lock()
	defer n.mu.Unlock()
	sl, ok := n.slots[name]
	if !ok {
		sl = &slot{}
		n.slots[name] = sl
	}
	return sl
}

// lookupSlot returns the named slot without creating it.
func (n *Node) lookupSlot(name string) (*slot, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sl, ok := n.slots[name]
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

// bindPlane creates the slot's roll-up plane on windowed nodes, tied
// to the slot's family entry. Called under sl.mu at kind-bind time, so
// a slot's plane exists from its first push onward. A plane bound
// after the node has already turned epochs over starts at the
// node-wide epoch, keeping every slot on one epoch timeline.
func (n *Node) bindPlane(sl *slot, ent *registry.Entry) {
	if !n.windowed || sl.plane != nil {
		return
	}
	pl, err := window.NewPlane(ent, nil, n.winLadder)
	if err != nil {
		return // unreachable: SetWindow validated the ladder
	}
	pl.StartAt(n.winEpoch.Load())
	sl.plane = pl
}

// bindLocked fixes the slot's family on first contact — creating its
// roll-up plane on windowed nodes — and rejects a push of any other
// family. A fronted slot is bound by its first write while its only data
// is still parked in a lane, so the check keys on ent, not on summary.
//
//sketch:locked
func (n *Node) bindLocked(sl *slot, name string, ent *registry.Entry) error {
	if sl.ent == nil {
		sl.ent = ent
		n.bindPlane(sl, ent)
	} else if sl.ent != ent {
		return fmt.Errorf("slot %q holds kind %q", name, sl.ent.Name())
	}
	return nil
}

// ingestLocked is the one step that puts a summary into a bound slot,
// run under sl.mu by both ingest mechanisms — per pushed frame on the
// direct path, per drained lane on a fronted node: install incoming or
// merge it in, feed the slot's roll-up plane, recycle, count the merge.
// Ownership of incoming ends here either way: after a failed merge the
// slot may be partially mutated and incoming may alias its state, so it
// is dropped unrecycled, and the caller must bump the version so no
// cached snapshot outlives the attempt.
//
//sketch:locked
func (n *Node) ingestLocked(sl *slot, incoming any) error {
	install := sl.summary == nil
	if install {
		sl.summary = incoming // ownership transfers to the slot
	} else if err := sl.ent.Merge(sl.summary, incoming); err != nil {
		return err
	} else {
		n.counters(sl.ent).merges.Add(1)
	}
	if sl.plane != nil {
		// AbsorbClone never takes ownership, so the slot keeps a summary
		// it just installed.
		_ = sl.plane.AbsorbClone(incoming)
	}
	if !install {
		sl.ent.PutScratch(incoming)
	}
	return nil
}

// countPushes tallies frames the slot has taken in, for STAT and
// METRICS.
func (n *Node) countPushes(sl *slot, ent *registry.Entry, frames int) {
	sl.pushes.Add(uint64(frames))
	n.counters(ent).pushes.Add(uint64(frames))
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
// ent's family and gets them into the named slot, binding the slot's
// kind on first contact — the one write path, whether the frames arrived
// alone or in a batch. On a direct node they are absorbed one by one
// under a single acquisition of the slot lock and the returned total is
// the slot's weight afterwards; frames preceding a failed merge stay
// merged and the error reports the failing index. On a node running the
// ingest front they are parked in a lane off the slot lock (ingestFront;
// token spreads connections across lanes) and absorbed later by the same
// step. Ownership of every element transfers to the node: each is
// installed, recycled through the registry pool, or (after a failed
// merge) dropped.
func (n *Node) IngestBatch(name string, ent *registry.Entry, decoded []any, token uint64) (uint64, error) {
	sl := n.getSlot(name)
	if n.frontLanes > 0 {
		return n.ingestFront(sl, name, ent, decoded, token)
	}
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
	sl.version.Add(1)
	total := ent.N(sl.summary)
	sl.mu.Unlock()
	n.countPushes(sl, ent, done)
	if err != nil {
		recycle(ent, decoded[done+1:])
		return 0, fmt.Errorf("merge frame %d/%d: %v", done+1, len(decoded), err)
	}
	return total, nil
}

// ingestFront is the lane mechanism: the already-decoded frames are
// folded into one summary with no lock held, the slot binds its kind
// under a brief critical section, and the folded summary lands in the
// connection's front lane — so concurrent writers to the same slot
// contend (at worst) on a lane mutex held for one merge, never on the
// slot lock. The slot absorbs the lanes on the epoch tick or at the next
// read (flushFront). The returned total is the weight acknowledged into
// the slot so far — every write's reply on a fronted node, single or
// batched — rather than the merged slot's N, which would need a flush;
// a failed fold or lane merge acknowledges nothing.
func (n *Node) ingestFront(sl *slot, name string, ent *registry.Entry, decoded []any, token uint64) (uint64, error) {
	folded := decoded[0]
	for i, d := range decoded[1:] {
		if err := ent.Merge(folded, d); err != nil {
			recycle(ent, decoded[i+2:])
			return 0, fmt.Errorf("merge frame %d/%d: %v", i+2, len(decoded), err)
		}
		ent.PutScratch(d)
	}
	sl.mu.Lock()
	err := n.bindLocked(sl, name, ent)
	fr := sl.front.Load()
	if err == nil && fr == nil {
		fr = shard.NewFront(ent, n.frontLanes)
		sl.front.Store(fr)
	}
	sl.mu.Unlock()
	if err != nil {
		ent.PutScratch(folded)
		return 0, err
	}
	w := ent.N(folded)
	consumed, err := fr.Push(token, folded)
	if err != nil {
		return 0, fmt.Errorf("merge: %v", err)
	}
	merges := len(decoded) - 1
	if !consumed {
		merges++
		ent.PutScratch(folded)
	}
	n.counters(ent).merges.Add(uint64(merges))
	n.countPushes(sl, ent, len(decoded))
	return sl.pushedN.Add(w), nil
}

// flushFront drains the slot's ingest front (if any) and absorbs the
// pending per-lane summaries under the slot lock, making them visible
// to reads — and, on windowed nodes, to the slot's roll-up plane. A lane
// holds one family, but shape is only checked by the merge itself: a
// lane summary the slot cannot absorb (mg k=16 into a k=8 slot) was
// acknowledged when it was parked and is lost here, which is counted as
// a drop of its kind rather than passed over in silence.
func (n *Node) flushFront(sl *slot) {
	fr := sl.front.Load()
	if fr == nil || !fr.Dirty() {
		return
	}
	pending := fr.Drain()
	if len(pending) == 0 {
		return
	}
	sl.mu.Lock()
	for _, p := range pending {
		if n.ingestLocked(sl, p) != nil {
			n.counters(sl.ent).drops.Add(1)
		}
	}
	sl.version.Add(1)
	sl.mu.Unlock()
}

// FlushFronts absorbs every slot's lane-parked ingest. The serving
// layer's epoch ticker calls this each tick, bounding the staleness of
// lane-parked data even when nobody pulls.
func (n *Node) FlushFronts() {
	for _, sl := range n.snapshotSlots() {
		n.flushFront(sl)
	}
}

// AdvanceWindows seals the live epoch of every windowed slot's plane
// (roll-ups included: they are part of the seal), absorbing lane-parked
// ingest first so front-mode pushes land in the epoch that was open
// when they arrived, and advances the node-wide epoch sequence. The
// epoch ticker calls this every tick; tests call it directly for
// deterministic epochs.
func (n *Node) AdvanceWindows() {
	for _, sl := range n.snapshotSlots() {
		n.flushFront(sl)
		sl.mu.Lock()
		pl := sl.plane
		sl.mu.Unlock()
		// The plane's epoch turns over even when sealing or rolling up
		// fails; nothing retains the error but this count.
		if pl != nil && pl.Advance() != nil {
			n.sealErrs.Add(1)
		}
	}
	n.winEpoch.Add(1)
}

// Drain is the graceful-shutdown flush: every slot's lane-parked
// ingest is absorbed and, on windowed nodes, the live window epoch is
// sealed — so the node's final serveable state (and its roll-up
// history) contains everything a push reply ever acknowledged.
func (n *Node) Drain() {
	n.FlushFronts()
	if n.windowed {
		n.AdvanceWindows()
	}
}

// Encoded returns the named slot's kind and wire frame, absorbing any
// lane-parked batches first: an encoded read issued after a front-mode
// push's OK reply must observe that push.
func (n *Node) Encoded(name string) (string, []byte, error) {
	sl, ok := n.lookupSlot(name)
	if !ok {
		return "", nil, fmt.Errorf("%w %q", errNoSlot, name)
	}
	n.flushFront(sl)
	kind, data, err := sl.encoded()
	if err != nil {
		if errors.Is(err, errSlotEmpty) {
			return "", nil, emptySlot(name)
		}
		return "", nil, fmt.Errorf("encoding: %w", err)
	}
	if ent, entOK := registry.ByName(kind); entOK {
		n.counters(ent).pulls.Add(1)
	}
	return kind, data, nil
}

// WindowEncoded answers the named slot's epoch range [from, to] from
// its roll-up plane (0 = oldest retained / through the live epoch).
// Lane-parked ingest is absorbed first so a windowed read issued after
// a push's OK reply observes that push in the live epoch.
func (n *Node) WindowEncoded(name string, from, to uint64) (string, []byte, error) {
	sl, ok := n.lookupSlot(name)
	if !ok {
		return "", nil, fmt.Errorf("%w %q", errNoSlot, name)
	}
	n.flushFront(sl)
	sl.mu.Lock()
	pl, ent := sl.plane, sl.ent // a plane is bound together with its kind
	sl.mu.Unlock()
	if pl == nil {
		if !n.windowed {
			return "", nil, errors.New("windowed queries disabled (start with -window)")
		}
		return "", nil, emptySlot(name)
	}
	frame, err := pl.QueryEncoded(from, to)
	if err != nil {
		return "", nil, err
	}
	n.counters(ent).pulls.Add(1)
	return ent.Name(), frame, nil
}

// Rows returns one STAT row per slot in slot-name order, each
// formatted under its slot's lock, lane-parked ingest absorbed first.
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
		n.flushFront(s.sl)
		s.sl.mu.Lock()
		if s.sl.summary != nil {
			row.Kind = s.sl.ent.Name()
			row.N = s.sl.ent.N(s.sl.summary)
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
	Drops  uint64 // acknowledged writes lost at flush time; 0 on a healthy node
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
			Drops:  c.drops.Load(),
		})
	}
	return out
}
