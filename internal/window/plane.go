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

// queryEnt is one cached answer and what it read: the sealed pieces
// of its cover, all retained through epoch until, and — for a range
// ending at the live epoch — the live Acc at version ver. Plane.fresh
// states when it may be served.
type queryEnt struct {
	until uint64
	ver   uint64
	frame []byte
}

// coverBuf is how many pieces a query's cover or a roll-up's children
// hold on the stack before they spill to the heap. A cover takes at most
// 2·(Fan−1) pieces from each level below the coarsest, so on the default
// ladder every range of up to 18 coarsest blocks (1,152 epochs) fits.
const coverBuf = 32

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

	mu    sync.Mutex
	store *segStore
	live  Acc    // the live epoch's summary; empty until first Absorb/Update
	now   uint64 // live epoch sequence number, starts at 1

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
	if p.live.Value() == nil {
		if p.mk == nil {
			panic("window: Plane.Update without a live-epoch constructor; use Absorb")
		}
		p.live.Fold(p.ops, p.mk(p.now)) // installs: an empty Acc merges nothing
	}
	p.live.Update(f)
}

// Absorb folds an already-built summary into the live epoch: an empty
// live epoch adopts it (ownership transfers to the plane and consumed
// is true), a non-empty one merges it in and the caller may recycle it.
// After a failed merge src may alias the live epoch's state and must
// not be recycled (Acc.Fold). The merge runs under the plane lock by
// design — the legal critical-section shape of the lockflow fixture:
// pure in-memory folding, no decode, I/O or blocking.
func (p *Plane) Absorb(src any) (consumed bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live.Fold(p.ops, src)
}

// AbsorbClone absorbs a codec clone of src, so the caller keeps src
// and may go on mutating it: src's frame decoded into pooled scratch,
// outside the lock. It is the cold path of a caller that must keep the
// summary it hands over, as a server slot keeps its installing push;
// a summary the caller can give up goes to Absorb itself.
func (p *Plane) AbsorbClone(src any) error {
	frame, err := p.ops.Encode(src)
	if err != nil {
		return err
	}
	c := p.ops.GetScratch()
	if err := p.ops.DecodeInto(c, frame); err != nil {
		p.ops.PutScratch(c)
		return err
	}
	consumed, err := p.Absorb(c)
	if !consumed && err == nil {
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
// saw the same writes. The seal encodes under the lock as every Acc
// owner does, once per version: a query may have encoded it already.
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
	if p.live.Version() == 0 && epoch > p.now {
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
	if v := p.live.Value(); v != nil {
		if n := p.ops.N(v); n > 0 {
			frame, err := p.live.Frame(p.ops)
			if err == nil {
				err = p.store.put(&Segment{Level: 0, From: sealed, To: sealed, N: n, Frame: frame})
			}
			if err != nil {
				sealErr = fmt.Errorf("window: sealing epoch %d: %w", sealed, err)
			}
		}
	}
	// Taken even when empty, so the version shows a plane is not
	// pristine; recycled, since the sealed frame captures the summary.
	if v := p.live.Take(); v != nil {
		p.ops.PutScratch(v)
	}
	p.now++
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
	for k, e := range p.cache {
		if !p.fresh(k, e) {
			delete(p.cache, k)
		}
	}
	return errors.Join(sealErr, rollErr)
}

// fresh is the cache's one rule: a cached answer is valid while the
// versions of the Accs it read are unchanged and no piece of its cover
// has been evicted. Only a range ending at the live epoch read the live
// Acc. Segments are immutable, and a seal adds none inside an older
// range, so a fresh answer is the bytes a new plan and reduce would give.
func (p *Plane) fresh(k queryKey, e queryEnt) bool {
	return p.now <= e.until && (k.to < p.now || e.ver == p.live.Version())
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
	var buf [coverBuf][]byte
	children := buf[:0] // on the stack up to coverBuf children
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
	return p.planSealed(from, to, includeLive, nil)
}

// planSealed plans the sealed part of a resolved range under p.mu: the
// whole range, or everything before the live epoch when that is
// included (nothing, for a live-only range). The cover's segments are
// appended to segs[:0].
func (p *Plane) planSealed(from, to uint64, includeLive bool, segs []*Segment) (Cover, error) {
	if !includeLive {
		return p.store.plan(from, to, p.now, segs)
	}
	// The live epoch is a piece retained through its own epoch.
	if from == p.now {
		return Cover{From: from, To: to, until: p.now}, nil
	}
	cov, err := p.store.plan(from, p.now-1, p.now, segs)
	cov.until = min(cov.until, p.now)
	return cov, err
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
// are served from the answer cache while fresh. The live epoch, when
// included, is read as its Acc's frame under the plane lock —
// identical bound-wise to merging it directly, and it keeps every
// decode outside the critical section.
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
	if e, ok := p.cache[key]; ok && p.fresh(key, e) {
		p.hits++
		p.mu.Unlock()
		return e.frame, nil
	}
	p.misses++
	var segBuf [coverBuf]*Segment
	cov, err := p.planSealed(rfrom, rto, includeLive, segBuf[:0])
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// The pieces in ascending epoch order: the cover's frames, then the
	// live Acc's; reduced outside the lock. Both lists stay on the
	// stack up to coverBuf pieces.
	var pieceBuf [coverBuf + 1][]byte
	pieces := pieceBuf[:0]
	for _, seg := range cov.Segments {
		pieces = append(pieces, seg.Frame)
	}
	ent := queryEnt{until: cov.until, ver: p.live.Version()}
	if v := p.live.Value(); includeLive && v != nil && p.ops.N(v) > 0 {
		live, err := p.live.Frame(p.ops)
		if err != nil {
			p.mu.Unlock()
			return nil, fmt.Errorf("window: snapshotting live epoch: %w", err)
		}
		pieces = append(pieces, live)
	}
	p.mu.Unlock()
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

	ent.frame = frame
	p.mu.Lock()
	if p.fresh(key, ent) {
		if len(p.cache) >= maxCachedQueries {
			clear(p.cache)
		}
		p.cache[key] = ent
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
