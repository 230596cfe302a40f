// Multi-resolution roll-up plane. A Plane owns a live epoch summary
// and a Ladder of sealed, encoded segments: Advance seals the live
// epoch into a level-0 segment and — whenever that completes a
// fan-aligned block — enqueues background roll-up merges that
// materialize the block one level up. Queries over an arbitrary
// sealed epoch range are planned as the minimal segment cover
// (O(log n) pieces) and reduced through Reduce, so "p99
// over the last hour" at a 1s tick is a handful of frozen-segment
// merges instead of ~3600 per-epoch ones. Correctness is pure
// PODS'12 mergeability: every segment carries the single-summary
// guarantee over its epochs' stream, for any merge order and any
// roll-up topology.
package window

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoData reports a query whose range holds no sealed segment and no
// live data: nothing was summarized there, as opposed to a range that
// is malformed or evicted. Fan-in readers test for it with errors.Is to
// let such a plane contribute nothing.
var ErrNoData = errors.New("window: nothing summarized")

// Ops is the family-erased summary surface the plane needs; the
// registry's *Entry satisfies it, so a server (or test) hands a
// catalog entry straight to NewPlane and the whole plane is
// registry-driven — every registered family gets multi-resolution
// windows with zero per-family code. Declaring the interface here
// keeps window free of a registry dependency.
type Ops interface {
	Name() string
	New() any
	Encode(v any) ([]byte, error)
	DecodeInto(dst any, frame []byte) error
	Merge(dst, src any) error
	N(v any) uint64
	GetScratch() any
	PutScratch(v any)
}

// PlaneStats is a point-in-time snapshot of a plane's state.
type PlaneStats struct {
	Epoch       uint64 // live epoch sequence number
	Segments    []int  // sealed segments per level
	Pending     int    // queued roll-up jobs
	Rollups     uint64 // roll-up merges completed
	RollupErrs  uint64 // roll-up merges dropped on error
	CacheHits   uint64
	CacheMisses uint64
}

// rollupJob asks the background worker to materialize the level
// segment covering [from, from+span-1] from its level-1 children.
type rollupJob struct {
	level int
	from  uint64
}

// queryKey identifies one planned cover in the result cache.
type queryKey struct{ from, to uint64 }

// queryEnt is one cached query result. Fully-sealed ranges are
// immutable — segments never change after sealing, so the merged
// frame stays the correct answer for its range as long as it is
// cached. Ranges that include the live epoch are additionally pinned
// to the live-mutation version, mirroring the server's PULL snapshot
// cache: any Absorb/Update/Advance bump invalidates them.
type queryEnt struct {
	live    uint64 // liveVer at compute time (live ranges only)
	hasLive bool
	frame   []byte
}

// maxCachedQueries bounds the cover cache; on overflow the cache is
// reset wholesale (entries are cheap to recompute and the reset keeps
// the structure allocation-free on the steady path).
const maxCachedQueries = 128

// Plane is a multi-resolution windowed summary. It is safe for
// concurrent use: Absorb/Update/Advance/Query may race each other and
// the background roll-up worker.
type Plane struct {
	ops    Ops
	ladder Ladder
	mk     func(epoch uint64) any // optional live-epoch constructor

	mu      sync.Mutex
	cond    *sync.Cond // signals the worker and Quiesce; set once at construction
	store   *segStore
	cur     any    // live epoch summary; nil until first Absorb/Update
	now     uint64 // live epoch sequence number, starts at 1
	liveVer uint64 // bumps on every live-epoch mutation and Advance
	pending []rollupJob
	inRoll  bool // worker is executing a job
	closed  bool

	cache map[queryKey]queryEnt

	rollups    uint64
	rollupErrs uint64
	lastErr    error
	hits       uint64
	misses     uint64
}

// NewPlane returns a running plane over the given summary surface and
// ladder shape. mk constructs the live epoch's summary on first
// update and may be nil when every summary arrives through Absorb
// (the server's shape: the first absorbed summary becomes the live
// accumulator). The zero Ladder selects DefaultLadder. The background
// roll-up worker starts immediately; Close stops it.
func NewPlane(ops Ops, mk func(epoch uint64) any, l Ladder) (*Plane, error) {
	nl, err := l.normalize()
	if err != nil {
		return nil, err
	}
	p := &Plane{
		ops:    ops,
		ladder: nl,
		mk:     mk,
		store:  newSegStore(nl),
		now:    1,
		cache:  map[queryKey]queryEnt{},
	}
	p.cond = sync.NewCond(&p.mu)
	go p.rollWorker()
	return p, nil
}

// Ladder returns the normalized ladder shape.
func (p *Plane) Ladder() Ladder { return p.ladder }

// StartAt aligns a fresh plane's live epoch with an external epoch
// sequence: a plane bound to a slot after its server has already
// turned over epochs starts at the server's current epoch instead of
// 1, so every slot on a node — and every node in a cluster advancing
// on the same tick — shares one epoch timeline. It is a no-op unless
// the plane is still pristine (no absorbs, no advances, no sealed
// segments) and epoch moves the sequence forward.
func (p *Plane) StartAt(epoch uint64) {
	p.mu.Lock()
	if p.cur == nil && p.liveVer == 0 && epoch > p.now {
		p.now = epoch
	}
	p.mu.Unlock()
}

// Epoch returns the live epoch sequence number.
func (p *Plane) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

// Update applies f to the live epoch's summary under the plane lock,
// constructing it with mk on first use. The callback must only
// mutate the summary — it runs inside the critical section.
func (p *Plane) Update(f func(cur any)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		if p.mk == nil {
			panic("window: Plane.Update without a live-epoch constructor; use Absorb")
		}
		p.cur = p.mk(p.now)
	}
	f(p.cur)
	p.liveVer++
}

// Absorb folds an already-built summary into the live epoch: the
// first summary becomes the live accumulator (ownership transfers to
// the plane and consumed is true), later ones are merged in and may
// be recycled by the caller. This merge runs under the window lock by
// design — it is the documented-legal critical-section shape (see the
// lockflow fixture): merging is pure in-memory folding with no
// decode, I/O or blocking, exactly like the ingest front's
// lane-absorb path.
func (p *Plane) Absorb(src any) (consumed bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		p.cur = src
		p.liveVer++
		return true, nil
	}
	if err := p.ops.Merge(p.cur, src); err != nil {
		p.liveVer++ // a failed merge may have partially mutated the live summary
		return false, err
	}
	p.liveVer++
	return false, nil
}

// AbsorbClone folds src into the live epoch without ever taking
// ownership: the caller keeps src (and may keep mutating or recycle
// it). When the live accumulator does not exist yet, src is cloned by
// a codec roundtrip — outside the lock, per the lock discipline's
// no-decode-under-mutex rule — and the clone adopts src's shape the
// way the server's slots adopt their first push's. The cold path runs
// once per plane lifetime plus once per epoch turn-over; every other
// call is Absorb's plain merge-under-the-window-lock.
func (p *Plane) AbsorbClone(src any) error {
	p.mu.Lock()
	if p.cur != nil {
		err := p.ops.Merge(p.cur, src)
		p.liveVer++
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()
	frame, err := p.ops.Encode(src)
	if err != nil {
		return err
	}
	c := p.ops.GetScratch()
	if err := p.ops.DecodeInto(c, frame); err != nil {
		p.ops.PutScratch(c)
		return err
	}
	// Another absorber (or an Advance) may have raced the clone; Absorb
	// re-checks under the lock and either installs the clone or merges
	// it into whoever won.
	consumed, err := p.Absorb(c)
	if !consumed {
		p.ops.PutScratch(c)
	}
	return err
}

// Advance seals the live epoch as a level-0 segment (empty epochs
// seal nothing), enqueues the roll-up merges the seal completes, and
// opens the next epoch. Encoding the sealed summary happens under the
// plane lock — the same deliberate choice as the server's snapshot
// cache: encode writes to a pooled in-memory buffer and keeps the
// seal atomic with the epoch turn-over.
func (p *Plane) Advance() error {
	p.mu.Lock()
	sealed := p.now
	var sealErr error
	if p.cur != nil && p.ops.N(p.cur) > 0 {
		frame, err := p.ops.Encode(p.cur)
		if err != nil {
			sealErr = fmt.Errorf("window: sealing epoch %d: %w", sealed, err)
		} else {
			seg := &Segment{Level: 0, From: sealed, To: sealed, N: p.ops.N(p.cur), Frame: frame}
			if err := p.store.put(seg); err != nil {
				sealErr = err
			}
		}
	}
	// The live summary is recycled through the registry pool: the
	// sealed frame fully captures it, and scratch targets are fully
	// replaced by DecodeInto.
	if p.cur != nil {
		p.ops.PutScratch(p.cur)
		p.cur = nil
	}
	p.now++
	p.liveVer++
	// A seal that completes a fan-aligned block enqueues its roll-up;
	// jobs are queued finest-first so a cascading boundary (epoch 64
	// completing both an 8-block and a 64-block) builds level 1 before
	// level 2 consumes it.
	if sealErr == nil {
		for level := 1; level < p.ladder.Levels; level++ {
			span := p.ladder.span(level)
			if sealed%span == 0 {
				p.pending = append(p.pending, rollupJob{level: level, from: sealed - span + 1})
			}
		}
	}
	p.store.evict(p.now)
	if len(p.cache) > 0 {
		// Live-range entries are now stale; sealed-range entries stay
		// correct but cheap to drop with them.
		p.dropLiveEntries()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return sealErr
}

// dropLiveEntries removes cache entries pinned to the live epoch.
func (p *Plane) dropLiveEntries() {
	for k, e := range p.cache {
		if e.hasLive {
			delete(p.cache, k)
		}
	}
}

// rollWorker is the background roll-up goroutine: it pops queued jobs
// and materializes coarse segments, doing all decode/merge/encode
// work outside the plane lock so sealing and queries never wait on a
// roll-up.
func (p *Plane) rollWorker() {
	p.mu.Lock()
	for {
		for len(p.pending) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		job := p.pending[0]
		p.pending = p.pending[1:]
		p.inRoll = true
		// Gather the block's sealed children while still locked;
		// frames are immutable so the refs stay valid unlocked.
		childSpan := p.ladder.span(job.level - 1)
		children := make([][]byte, 0, p.ladder.Fan)
		var n uint64
		for i := 0; i < p.ladder.Fan; i++ {
			if seg, ok := p.store.get(job.level-1, job.from+uint64(i)*childSpan); ok {
				children = append(children, seg.Frame)
				n += seg.N
			}
		}
		p.mu.Unlock()

		seg, err := p.rollUp(children, n, job)

		p.mu.Lock()
		switch {
		case err != nil:
			p.rollupErrs++
			p.lastErr = err
		case seg != nil:
			if putErr := p.store.put(seg); putErr != nil {
				p.rollupErrs++
				p.lastErr = putErr
			} else {
				p.rollups++
			}
		}
		p.inRoll = false
		p.cond.Broadcast()
	}
}

// rollUp reduces a block's sealed child frames (ascending epoch
// order, total weight n) into the one segment the job asked for. A nil
// segment (no children) means the whole block was empty. Called with
// no lock held.
func (p *Plane) rollUp(children [][]byte, n uint64, job rollupJob) (*Segment, error) {
	if len(children) == 0 {
		return nil, nil
	}
	to := job.from + p.ladder.span(job.level) - 1
	frame, err := ReduceEncoded(p.ops, children)
	if err != nil {
		return nil, fmt.Errorf("window: rolling up level-%d segment [%d, %d]: %w", job.level, job.from, to, err)
	}
	return &Segment{Level: job.level, From: job.from, To: to, N: n, Frame: frame}, nil
}

// Quiesce blocks until every queued roll-up has completed. Tests and
// benchmarks use it to observe a deterministic ladder; production
// callers never need it (queries are correct against whatever is
// sealed, falling back to finer segments while a roll-up is in
// flight).
func (p *Plane) Quiesce() {
	p.mu.Lock()
	for (len(p.pending) > 0 || p.inRoll) && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close stops the background worker. Pending roll-ups are abandoned;
// sealed segments remain queryable.
func (p *Plane) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Stats snapshots the plane's counters.
func (p *Plane) Stats() PlaneStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PlaneStats{
		Epoch:       p.now,
		Segments:    p.store.count(),
		Pending:     len(p.pending),
		Rollups:     p.rollups,
		RollupErrs:  p.rollupErrs,
		CacheHits:   p.hits,
		CacheMisses: p.misses,
	}
}

// Cover plans the minimal sealed-segment cover of [from, to] without
// reducing it; tests and the bench suite use it to count pieces.
func (p *Plane) Cover(from, to uint64) (Cover, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	from, to, includeLive, err := p.resolveRange(from, to)
	if err != nil {
		return Cover{}, err
	}
	return p.planSealed(from, to, includeLive)
}

// planSealed plans the sealed part of a resolved range under p.mu: the
// whole range, or everything before the live epoch when that is
// included (nothing, for a live-only range).
func (p *Plane) planSealed(from, to uint64, includeLive bool) (Cover, error) {
	if includeLive {
		if from == p.now {
			return Cover{From: from, To: to}, nil
		}
		to = p.now - 1
	}
	return p.store.plan(from, to, p.now)
}

// resolveRange validates and normalizes a query range under p.mu:
// from == 0 selects the oldest retained epoch, to == 0 the live
// epoch; a range ending at p.now includes the live summary.
func (p *Plane) resolveRange(from, to uint64) (rfrom, rto uint64, includeLive bool, err error) {
	if to == 0 || to > p.now {
		to = p.now
	}
	if from == 0 {
		from = p.store.oldestRetained(p.now)
	}
	if from > to {
		return 0, 0, false, fmt.Errorf("window: bad epoch range [%d, %d]", from, to)
	}
	return from, to, to == p.now, nil
}

// QueryEncoded plans, reduces and encodes the summary of epochs
// [from, to] (both inclusive; 0 means "oldest retained" / "live").
// The returned frame is immutable and may be shared; repeated covers
// are served from the epoch-versioned result cache. The live epoch,
// when included, is snapshotted under the plane lock via the registry
// Encode path — identical bound-wise to merging it directly, and it
// keeps every decode outside the critical section.
func (p *Plane) QueryEncoded(from, to uint64) ([]byte, error) {
	p.mu.Lock()
	rfrom, rto, includeLive, err := p.resolveRange(from, to)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	key := queryKey{rfrom, rto}
	liveVer := p.liveVer
	if e, ok := p.cache[key]; ok && (!e.hasLive || e.live == liveVer) {
		p.hits++
		p.mu.Unlock()
		return e.frame, nil
	}
	p.misses++
	cov, err := p.planSealed(rfrom, rto, includeLive)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	var liveFrame []byte
	if includeLive && p.cur != nil && p.ops.N(p.cur) > 0 {
		liveFrame, err = p.ops.Encode(p.cur)
		if err != nil {
			p.mu.Unlock()
			return nil, fmt.Errorf("window: snapshotting live epoch: %w", err)
		}
	}
	p.mu.Unlock()

	// Reduce outside the lock: the cover's frames, then the live
	// snapshot, in ascending epoch order.
	pieces := make([][]byte, 0, len(cov.Segments)+1)
	for _, seg := range cov.Segments {
		pieces = append(pieces, seg.Frame)
	}
	if liveFrame != nil {
		pieces = append(pieces, liveFrame)
	}
	var frame []byte
	switch len(pieces) {
	case 0:
		return nil, fmt.Errorf("%w in [%d, %d]", ErrNoData, rfrom, rto)
	case 1:
		// A single piece is already the answer; its frame is immutable
		// and shared as-is.
		frame = pieces[0]
	default:
		if frame, err = ReduceEncoded(p.ops, pieces); err != nil {
			return nil, fmt.Errorf("window: reducing the cover of [%d, %d]: %w", rfrom, rto, err)
		}
	}

	p.mu.Lock()
	if !includeLive || p.liveVer == liveVer {
		if len(p.cache) >= maxCachedQueries {
			clear(p.cache)
		}
		p.cache[key] = queryEnt{live: liveVer, hasLive: includeLive, frame: frame}
	}
	p.mu.Unlock()
	return frame, nil
}

// Query reduces the cover of [from, to] and returns a freshly decoded
// summary the caller owns.
func (p *Plane) Query(from, to uint64) (any, error) {
	frame, err := p.QueryEncoded(from, to)
	if err != nil {
		return nil, err
	}
	v := p.ops.New()
	if err := p.ops.DecodeInto(v, frame); err != nil {
		return nil, err
	}
	return v, nil
}
