package window

import "fmt"

// Ladder is the shape of a multi-resolution roll-up plane: Levels
// geometric resolutions where a level-ℓ segment summarizes Fan^ℓ
// consecutive epochs. Level 0 holds one sealed segment per epoch;
// sealing the last epoch of a fan-aligned block rolls the block up: its
// summary is materialized one level up as part of that seal. With the
// default 8×3 ladder a segment covers 1, 8 or 64 epochs — at a 1s
// epoch tick, roughly per-second, coarse-minute and coarse-hour
// resolutions.
type Ladder struct {
	// Fan is the roll-up fan-in: how many level-ℓ segments one
	// level-ℓ+1 segment summarizes. Must be >= 2.
	Fan int
	// Levels is the number of resolutions including level 0. Levels
	// == 1 disables roll-ups entirely (a flat per-epoch ring), which
	// is the baseline the equivalence tests compare the ladder against.
	Levels int
	// Horizon[ℓ] is how many epochs of history level ℓ retains; a
	// segment is evicted once its newest epoch falls more than
	// Horizon[ℓ] epochs behind the live epoch. Nil or short slices
	// are filled with DefaultHorizon(ℓ). Coarser levels retain
	// (geometrically) more history, which is what makes the plane a
	// multi-resolution time-travel store: recent ranges answer at
	// epoch granularity, older ranges only at coarser alignments.
	Horizon []uint64
}

// DefaultLadder is the 1→8→64 shape from the roll-up design note.
func DefaultLadder() Ladder { return Ladder{Fan: 8, Levels: 3} }

// span returns the number of epochs one level-ℓ segment covers.
func (l Ladder) span(level int) uint64 {
	s := uint64(1)
	for i := 0; i < level; i++ {
		s *= uint64(l.Fan)
	}
	return s
}

// DefaultHorizon is the retention applied when Horizon does not name
// a level: each level keeps 4·Fan of its own segments' worth of
// epochs, so covers can mix a level with its neighbours near the edges.
func (l Ladder) DefaultHorizon(level int) uint64 {
	return 4 * uint64(l.Fan) * l.span(level)
}

// Validate reports whether NewPlane accepts the shape.
func (l Ladder) Validate() error {
	_, err := l.normalize()
	return err
}

// normalize validates the shape and fills unset horizons.
func (l Ladder) normalize() (Ladder, error) {
	if l.Fan == 0 && l.Levels == 0 && l.Horizon == nil {
		l = DefaultLadder()
	}
	if l.Levels < 1 {
		return l, fmt.Errorf("window: ladder needs >= 1 level, got %d", l.Levels)
	}
	if l.Fan < 2 && l.Levels > 1 {
		return l, fmt.Errorf("window: ladder fan must be >= 2, got %d", l.Fan)
	}
	if l.Fan < 1 {
		l.Fan = 1
	}
	h := make([]uint64, l.Levels)
	for i := range h {
		if i < len(l.Horizon) && l.Horizon[i] > 0 {
			h[i] = l.Horizon[i]
		} else {
			h[i] = l.DefaultHorizon(i)
		}
		if span := l.span(i); h[i] < span {
			h[i] = span // a level must be able to hold one of its own segments
		}
	}
	l.Horizon = h
	return l, nil
}

// Segment is one sealed, immutable piece of the plane: the encoded
// summary of epochs [From, To] at the given level. Frame bytes are
// never mutated after sealing, so segments are shared freely between
// the store, the planner, roll-ups and the query cache.
type Segment struct {
	Level    int
	From, To uint64 // inclusive epoch range, To-From+1 == span(Level)
	N        uint64 // total summarized weight
	Frame    []byte // registry-encoded snapshot
}

// segStore holds the sealed segments of one ladder, keyed by (level,
// start epoch). It is a plain data structure: the Plane serializes
// access under its own mutex.
type segStore struct {
	ladder Ladder
	// levels[ℓ] maps a segment's From epoch to the segment.
	levels []map[uint64]*Segment
}

func newSegStore(l Ladder) *segStore {
	st := &segStore{
		ladder: l,
		levels: make([]map[uint64]*Segment, l.Levels),
	}
	for i := range st.levels {
		st.levels[i] = map[uint64]*Segment{}
	}
	return st
}

// put seals one segment. Re-sealing an existing (level, from) pair is
// rejected: segments are immutable and each epoch is counted exactly
// once per level, so a duplicate seal is a roll-up accounting bug.
func (st *segStore) put(seg *Segment) error {
	span := st.ladder.span(seg.Level)
	if seg.To != seg.From+span-1 || (seg.From-1)%span != 0 {
		return fmt.Errorf("window: level-%d segment [%d,%d] is not span-%d aligned", seg.Level, seg.From, seg.To, span)
	}
	if _, dup := st.levels[seg.Level][seg.From]; dup {
		return fmt.Errorf("window: level-%d segment starting at epoch %d sealed twice", seg.Level, seg.From)
	}
	st.levels[seg.Level][seg.From] = seg
	return nil
}

// get returns the sealed segment at (level, from), if present.
func (st *segStore) get(level int, from uint64) (*Segment, bool) {
	seg, ok := st.levels[level][from]
	return seg, ok
}

// evict drops every segment whose newest epoch has fallen more than
// its level's horizon behind the live epoch.
func (st *segStore) evict(now uint64) {
	for level, segs := range st.levels {
		h := st.ladder.Horizon[level]
		if now <= h {
			continue
		}
		limit := now - h // keep segments with To >= limit
		for from, seg := range segs {
			if seg.To < limit {
				delete(segs, from)
			}
		}
	}
}

// retained reports whether the level-ℓ block ending at epoch blockTo
// is still within the level's retention horizon at live epoch now. A
// block inside the horizon that has no sealed segment was empty (its
// epochs summarized nothing), which the planner may skip; outside the
// horizon, absence means evicted and the cover fails.
func (st *segStore) retained(level int, blockTo, now uint64) bool {
	h := st.ladder.Horizon[level]
	return now <= h || blockTo >= now-h
}

// count returns the number of sealed segments per level.
func (st *segStore) count() []int {
	out := make([]int, len(st.levels))
	for i, m := range st.levels {
		out[i] = len(m)
	}
	return out
}
