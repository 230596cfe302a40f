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
	pushes  uint64          // guarded by mu

	// version counts mutations. It is bumped under mu after every
	// install/merge and read without mu by the PULL fast path, so a
	// reply-ordered reader can detect staleness with one atomic load.
	version atomic.Uint64
	// snap is the epoch-cached encoding, valid iff snap.version ==
	// version. Published under mu, loaded lock-free.
	snap atomic.Pointer[snapshot]

	// front is the slot's per-lane ingest front, created lazily by the
	// first PUSHB once the node has ingest fronting enabled (see
	// SetIngestFront). nil on nodes running the default direct-merge
	// path. pushedN totals the weight absorbed through the front so the
	// PUSHB reply stays meaningful without flushing.
	frontOnce sync.Once
	front     atomic.Pointer[shard.Front]
	pushedN   atomic.Uint64

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
	merges atomic.Uint64 // slot-level registry merges executed
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

	// frontLanes > 0 enables the per-lane ingest front for batch
	// ingestion: batches fold into per-connection lanes and the slot
	// absorbs them on the epoch tick (frontTick) or at the next read.
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

	// stats is the per-kind operation tally, indexed by wire tag.
	stats [codec.KindCount]kindCounters
}

// NewNode returns a node with no slots.
func NewNode() *Node {
	n := &Node{slots: make(map[string]*slot)}
	n.winEpoch.Store(1)
	return n
}

// SetIngestFront enables the per-lane ingest front for batch ingestion
// (off by default). With the front on, each batch is folded into a
// single summary off any lock and parked in a per-connection lane; the
// slot absorbs the lanes on the epoch tick (every tick) and before any
// read, so concurrent pushers stop contending on the slot lock while
// reads stay read-your-writes. The batch reply reports the total
// weight pushed through the slot (monotone) instead of the merged N.
// lanes < 1 selects GOMAXPROCS lanes; tick <= 0 selects 5ms. Call
// before serving.
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
	// NewPlane is the ladder's validator; the probe binds no family and
	// is dropped at once.
	probe, err := window.NewPlane(nil, nil, l)
	if err != nil {
		return err
	}
	probe.Close()
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

// kindMismatch reports a push of ent's family into a slot bound to
// another. ent can be bound with summary still nil when the ingest
// front holds the slot's only data, so the check keys on ent.
//
//sketch:locked
func (sl *slot) kindMismatch(name string, ent *registry.Entry) error {
	if sl.ent != nil && sl.ent != ent {
		return fmt.Errorf("slot %q holds kind %q", name, sl.ent.Name())
	}
	return nil
}

// ingestLocked is the per-frame step every direct push runs under
// sl.mu: bind the slot's kind on first contact, install incoming or
// merge it in, feed the slot's roll-up plane, recycle. On a merge error
// the slot may be partially mutated and incoming may alias its state:
// the caller must bump the version, so no cached snapshot outlives it,
// and incoming is left to the caller.
//
//sketch:locked
func (n *Node) ingestLocked(sl *slot, ent *registry.Entry, incoming any) error {
	install := sl.summary == nil
	if install {
		sl.ent = ent
		sl.summary = incoming // ownership transfers to the slot
		n.bindPlane(sl, ent)
	} else if err := ent.Merge(sl.summary, incoming); err != nil {
		return err
	} else {
		n.counters(ent).merges.Add(1)
	}
	if sl.plane != nil {
		// AbsorbClone never takes ownership, so the slot keeps a summary
		// it just installed.
		_ = sl.plane.AbsorbClone(incoming)
	}
	if !install {
		ent.PutScratch(incoming)
	}
	sl.pushes++
	return nil
}

// Ingest decodes nothing: it takes an already-decoded summary of ent's
// family and merges it into the named slot under the slot lock,
// binding the slot's kind on first contact. Ownership of incoming
// always transfers to the node — it is installed, recycled through the
// registry pool, or (after a failed merge, which may alias its state)
// dropped. Returns the slot's total weight after the merge.
func (n *Node) Ingest(name string, ent *registry.Entry, incoming any) (uint64, error) {
	sl := n.getSlot(name)
	sl.mu.Lock()
	err := sl.kindMismatch(name, ent)
	if err == nil {
		if err = n.ingestLocked(sl, ent, incoming); err != nil {
			err = fmt.Errorf("merge: %v", err)
		}
		sl.version.Add(1)
	}
	if err != nil {
		sl.mu.Unlock()
		ent.PutScratch(incoming)
		return 0, err
	}
	total := ent.N(sl.summary)
	sl.mu.Unlock()
	n.counters(ent).pushes.Add(1)
	return total, nil
}

// IngestBatch merges a batch of already-decoded summaries into the
// named slot under a single lock acquisition (or, on nodes running the
// ingest front, folds them into a per-connection lane off the slot
// lock — token spreads connections across lanes). Ownership of every
// element transfers to the node, exactly as Ingest. Frames preceding a
// failed merge stay merged; the error reports the failing index.
func (n *Node) IngestBatch(name string, ent *registry.Entry, decoded []any, token uint64) (uint64, error) {
	if n.frontLanes > 0 {
		return n.ingestBatchFront(name, ent, decoded, token)
	}
	sl := n.getSlot(name)
	sl.mu.Lock()
	err := sl.kindMismatch(name, ent)
	done := 0 // frames ingested before the first failure
	var total uint64
	if err == nil {
		for ; done < len(decoded); done++ {
			if mergeErr := n.ingestLocked(sl, ent, decoded[done]); mergeErr != nil {
				err = fmt.Errorf("merge frame %d/%d: %v", done+1, len(decoded), mergeErr)
				break
			}
		}
		sl.version.Add(1)
	}
	if err == nil {
		total = ent.N(sl.summary)
	}
	sl.mu.Unlock()
	n.counters(ent).pushes.Add(uint64(done))
	// Frames before a failure stay merged; the rest are recycled.
	for _, d := range decoded[done:] {
		ent.PutScratch(d)
	}
	return total, err
}

// ingestBatchFront is the batch tail on nodes running the ingest
// front: the already-decoded batch is folded into one summary with no
// lock held, the slot binds its kind under a brief critical section,
// and the folded summary lands in the connection's front lane — so
// concurrent pushers to the same slot contend (at worst) on a lane
// mutex held for one merge, never on the slot lock. The slot absorbs
// the lanes on the epoch tick or at the next read (flushFront). The
// returned total is the weight pushed through the slot so far rather
// than the merged slot's N, which would require a flush.
func (n *Node) ingestBatchFront(name string, ent *registry.Entry, decoded []any, token uint64) (uint64, error) {
	folded := decoded[0]
	for i := 1; i < len(decoded); i++ {
		if err := ent.Merge(folded, decoded[i]); err != nil {
			for _, d := range decoded[i:] {
				ent.PutScratch(d)
			}
			ent.PutScratch(folded)
			return 0, fmt.Errorf("merge frame %d/%d: %v", i+1, len(decoded), err)
		}
		n.counters(ent).merges.Add(1)
		ent.PutScratch(decoded[i])
	}
	sl := n.getSlot(name)
	sl.mu.Lock()
	if err := sl.kindMismatch(name, ent); err != nil {
		sl.mu.Unlock()
		ent.PutScratch(folded)
		return 0, err
	}
	sl.ent = ent
	sl.pushes += uint64(len(decoded))
	n.bindPlane(sl, ent)
	sl.mu.Unlock()
	sl.frontOnce.Do(func() {
		sl.front.Store(shard.NewFront(ent, n.frontLanes))
	})
	w := ent.N(folded)
	consumed, err := sl.front.Load().Push(token, folded)
	if !consumed {
		ent.PutScratch(folded)
	}
	if err != nil {
		return 0, fmt.Errorf("merge: %v", err)
	}
	n.counters(ent).pushes.Add(uint64(len(decoded)))
	return sl.pushedN.Add(w), nil
}

// flushFront drains the slot's ingest front (if any) and absorbs the
// pending per-lane summaries under the slot lock, making them visible
// to reads — and, on windowed nodes, to the slot's roll-up plane. The
// front is keyed to one kind, so merges here cannot shape-mismatch in
// normal operation; if one fails anyway the pending summary is dropped
// unrecycled (a failed merge may alias its state) and the version bump
// keeps cached snapshots from outliving the partial merge.
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
	merges := uint64(0)
	for _, p := range pending {
		if sl.plane != nil {
			// Absorb before the slot consumes p; the plane never takes
			// ownership.
			_ = sl.plane.AbsorbClone(p)
		}
		if sl.summary == nil {
			sl.summary = p
			continue
		}
		if err := sl.ent.Merge(sl.summary, p); err == nil {
			merges++
			sl.ent.PutScratch(p)
		}
	}
	sl.version.Add(1)
	ent := sl.ent
	sl.mu.Unlock()
	if ent != nil {
		n.counters(ent).merges.Add(merges)
	}
}

// FlushFronts absorbs every slot's lane-parked ingest. The serving
// layer's epoch ticker calls this each tick, bounding the staleness of
// lane-parked data even when nobody pulls.
func (n *Node) FlushFronts() {
	for _, sl := range n.snapshotSlots() {
		n.flushFront(sl)
	}
}

// AdvanceWindows seals the live epoch of every windowed slot's plane,
// absorbing lane-parked ingest first so front-mode pushes land in the
// epoch that was open when they arrived, and advances the node-wide
// epoch sequence. The epoch ticker calls this every tick; tests call
// it directly for deterministic epochs.
func (n *Node) AdvanceWindows() {
	for _, sl := range n.snapshotSlots() {
		n.flushFront(sl)
		sl.mu.Lock()
		pl := sl.plane
		sl.mu.Unlock()
		if pl != nil {
			// A seal error is retained in the plane's own stats; the
			// epoch still turns over.
			_ = pl.Advance()
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
			row.Pushes = s.sl.pushes
		}
		s.sl.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}

// Reset drops the named slot, stopping its roll-up worker; its history
// dies with the slot.
func (n *Node) Reset(name string) {
	n.mu.Lock()
	sl := n.slots[name]
	delete(n.slots, name)
	n.mu.Unlock()
	if sl != nil {
		sl.mu.Lock()
		if sl.plane != nil {
			sl.plane.Close()
		}
		sl.mu.Unlock()
	}
}

// CloseSlots stops every slot's roll-up worker. Sealed segments stay
// queryable until the node is dropped.
func (n *Node) CloseSlots() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, sl := range n.slots {
		sl.mu.Lock()
		if sl.plane != nil {
			sl.plane.Close()
		}
		sl.mu.Unlock()
	}
}

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
