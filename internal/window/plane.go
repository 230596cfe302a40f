// Package window turns any mergeable summary into a windowed summary
// over tumbling epochs, with one engine: the multi-resolution roll-up
// plane. A Plane owns a live epoch summary and a Ladder of sealed,
// encoded segments: Advance seals the live epoch into a level-0
// segment and — whenever that completes a fan-aligned block — rolls
// the block up one level, before the seal is visible to any query, so
// the sealed set is always complete and an answer is a function of the
// query and what was written, never of timing. Queries over an
// arbitrary sealed epoch range are planned as the minimal segment
// cover (O(log n) pieces) and reduced through Reduce, so "p99 over the
// last hour" at a 1s tick is a handful of frozen-segment merges
// instead of ~3600 per-epoch ones. Windowed is the typed library view
// over a one-level plane. Correctness is pure PODS'12 mergeability:
// every segment carries the single-summary guarantee over its epochs'
// stream, for any merge order and any roll-up topology.
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

// Ops is the family-erased summary surface the plane and Reduce need;
// the registry's *Entry satisfies it, so a server hands a catalog
// entry straight to NewPlane and every registered family gets
// multi-resolution windows with zero per-family code.
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
	CacheHits   uint64
	CacheMisses uint64
}

// queryKey identifies one planned cover in the result cache.
type queryKey struct{ from, to uint64 }

// queryEnt is one cached query result. A fully-sealed range is
// immutable — Advance stores everything a seal adds before any query
// can see the seal, and a cover is a function of the stored set — so
// its merged frame is the answer, cached or recomputed. Ranges that
// include the live epoch are additionally pinned to the live-mutation
// version, mirroring the server's PULL snapshot cache: any
// Absorb/Update/Advance bump invalidates them.
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
// concurrent use: Absorb/Update/Advance/Query may race each other. It
// owns no goroutine and needs no shutdown: drop it and it is gone.
type Plane struct {
	ops    Ops
	ladder Ladder
	mk     func(epoch uint64) any // optional live-epoch constructor

	mu      sync.Mutex
	store   *segStore
	cur     any    // live epoch summary; nil until first Absorb/Update
	now     uint64 // live epoch sequence number, starts at 1
	liveVer uint64 // bumps on every live-epoch mutation and Advance

	cache map[queryKey]queryEnt

	hits   uint64
	misses uint64
}

// NewPlane returns a plane over the given summary surface and ladder
// shape. mk constructs the live epoch's summary on first update and
// may be nil when every summary arrives through Absorb (the server's
// shape: the first absorbed summary becomes the live accumulator). The
// zero Ladder selects DefaultLadder.
func NewPlane(ops Ops, mk func(epoch uint64) any, l Ladder) (*Plane, error) {
	nl, err := l.normalize()
	if err != nil {
		return nil, err
	}
	return &Plane{
		ops:    ops,
		ladder: nl,
		mk:     mk,
		store:  newSegStore(nl),
		now:    1,
		cache:  map[queryKey]queryEnt{},
	}, nil
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
// be recycled by the caller. The merge runs under the plane lock by
// design — the legal critical-section shape of the lockflow fixture:
// pure in-memory folding, no decode, I/O or blocking.
func (p *Plane) Absorb(src any) (consumed bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.liveVer++ // whatever happens: a failed merge may have half-mutated the live summary
	if p.cur == nil {
		p.cur = src
		return true, nil
	}
	return false, p.ops.Merge(p.cur, src)
}

// AbsorbClone folds src into the live epoch without ever taking
// ownership: the caller keeps src (and may keep mutating or recycle
// it). When the live accumulator does not exist yet, src is cloned by
// a codec roundtrip — outside the lock — and the clone adopts src's
// shape the way the server's slots adopt their first push's. That cold
// path runs once per epoch; every other call is Absorb's plain merge.
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
// seal nothing), rolls up — finest level first — every fan-aligned
// block that seal completes, and opens the next epoch, all under the
// plane lock: no query sees a seal without its roll-ups, so the
// planner's "coarsest available segment" is the canonical aligned
// cover and a sealed range reduces through the same merge tree — to
// the same bytes — on every read, cached or not, on every node that
// saw the same writes. Encoding under the lock is the same deliberate
// choice as the server's snapshot cache: it writes to a pooled
// in-memory buffer and keeps the seal atomic with the turn-over.
//
// The epoch turns over whatever fails, and every failure is returned
// (joined). A failed seal loses that epoch; the blocks it closes are
// still built from the epochs that did seal, which is all there will
// ever be of them. A failed roll-up stops the cascade: no coarser
// block is built over a hole its finer segments still fill.
func (p *Plane) Advance() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.advance()
}

// AdvanceTo advances the plane until its live epoch is epoch, one
// Advance per epoch, and joins their errors; a plane already there or
// past it is left as it is. It is how a plane follows an external epoch
// sequence — a server's, shared by all its slots and by every node of
// a cluster on the same tick — whichever epoch the plane was made in:
// a pristine plane (no absorbs, no advances) has nothing to seal or
// roll up and jumps straight there.
func (p *Plane) AdvanceTo(epoch uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil && p.liveVer == 0 && epoch > p.now {
		p.now = epoch
	}
	var err error
	for p.now < epoch {
		err = errors.Join(err, p.advance())
	}
	return err
}

// advance is Advance with p.mu held.
func (p *Plane) advance() error {
	sealed := p.now
	var sealErr, rollErr error
	if p.cur != nil {
		if n := p.ops.N(p.cur); n > 0 {
			frame, err := p.ops.Encode(p.cur)
			if err == nil {
				err = p.store.put(&Segment{Level: 0, From: sealed, To: sealed, N: n, Frame: frame})
			}
			if err != nil {
				sealErr = fmt.Errorf("window: sealing epoch %d: %w", sealed, err)
			}
		}
		// Recycled through the registry pool: the sealed frame captures
		// it, and DecodeInto fully replaces a scratch target.
		p.ops.PutScratch(p.cur)
		p.cur = nil
	}
	p.now++
	p.liveVer++
	// Spans nest, so the levels this seal closes a block at are a
	// prefix; finest first, because a cascading boundary (epoch 64 closes
	// an 8-block and a 64-block) builds level 2 from the level-1 segment
	// it just stored.
	for level := 1; level < p.ladder.Levels; level++ {
		span := p.ladder.span(level)
		if sealed%span != 0 {
			break
		}
		if rollErr = p.rollUp(level, sealed-span+1); rollErr != nil {
			break
		}
	}
	p.store.evict(p.now)
	// Live-range answers are stale now; sealed-range ones stay correct.
	for k, e := range p.cache {
		if e.hasLive {
			delete(p.cache, k)
		}
	}
	return errors.Join(sealErr, rollErr)
}

// rollUp stores the level segment covering [from, from+span-1],
// reduced from its sealed level-1 children in ascending epoch order; a
// block with no sealed child was empty and stores nothing. Called by
// Advance with p.mu held, and the one place a decode under that lock is
// the design: the block has to be stored before the seal completing it
// is visible, or a sealed range's answer depends on who got there
// first. The hold is one block's fold — ≤ Fan decode+merges and an
// encode: ≈ 45–85 µs for small mg frames, ≲ 0.8 ms for eight
// aggregator-size qdigest frames — once per Fan epochs per level, and
// it blocks only this plane's writers and cache-missing window reads;
// PULL never takes this lock.
//
//sketch:lockflow-ok
func (p *Plane) rollUp(level int, from uint64) error {
	childSpan := p.ladder.span(level - 1)
	children := make([][]byte, 0, p.ladder.Fan)
	var n uint64
	for i := 0; i < p.ladder.Fan; i++ {
		if seg, ok := p.store.get(level-1, from+uint64(i)*childSpan); ok {
			children = append(children, seg.Frame)
			n += seg.N
		}
	}
	if len(children) == 0 {
		return nil
	}
	to := from + p.ladder.span(level) - 1
	frame, err := ReduceEncoded(p.ops, children)
	if err == nil {
		err = p.store.put(&Segment{Level: level, From: from, To: to, N: n, Frame: frame})
	}
	if err != nil {
		return fmt.Errorf("window: rolling up level-%d segment [%d, %d]: %w", level, from, to, err)
	}
	return nil
}

// Quiesce does nothing — there is no background roll-up to wait for —
// and exists only because benchmark/probe.go calls it and benchmark/
// changes in benchmark PRs alone (ROADMAP item 1 deletes both).
func (p *Plane) Quiesce() {}

// Close does nothing: a plane owns no goroutine. Kept like Quiesce.
func (p *Plane) Close() {}

// Stats snapshots the plane's counters.
func (p *Plane) Stats() PlaneStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PlaneStats{
		Epoch:       p.now,
		Segments:    p.store.count(),
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
	return p.queryEncoded(from, to, 0)
}

// queryEncoded is QueryEncoded with one more way to name the range:
// last > 0 selects the most recent `last` epochs, live one included —
// resolved under the lock, so a racing Advance cannot slide the window
// off its oldest epoch between a read of the clock and the plan.
func (p *Plane) queryEncoded(from, to, last uint64) ([]byte, error) {
	p.mu.Lock()
	if last > 0 {
		from, to = p.now-min(last, p.now)+1, p.now
	}
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
func (p *Plane) Query(from, to uint64) (any, error) { return p.query(from, to, 0) }

func (p *Plane) query(from, to, last uint64) (any, error) {
	frame, err := p.queryEncoded(from, to, last)
	if err != nil {
		return nil, err
	}
	v := p.ops.New()
	if err := p.ops.DecodeInto(v, frame); err != nil {
		return nil, err
	}
	return v, nil
}
