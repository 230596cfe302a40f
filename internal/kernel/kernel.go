// Package kernel implements a mergeable ε-kernel for directional width
// in the plane (PODS'12 §5): a small subset K of the input points such
// that for every direction u,
//
//	width(K, u) ≥ (1 − ε) · width(P, u)
//
// The construction fixes a grid of m = O(1/√ε) directions (the paper's
// "reference frame", which is what makes the kernel mergeable) and
// keeps, for every grid direction, the extreme point of the input.
// Because "extreme point per fixed direction" is a semigroup (the max
// over a union is the max of the maxes), merging kernels is exact on
// the grid: after any merge tree the kernel supports exactly the same
// grid extremes as a kernel built over the whole point set, so the
// error never accumulates — only the fixed grid discretization
// contributes, and it is bounded by the sin² of half the angular step
// times the diameter-to-width ratio.
//
// Update does not pay the 2m dot products for every point. A point
// inside the convex hull of what the kernel already stores is extreme
// in no direction, and the stored extremes, read in slot order, are
// that hull's vertices in counter-clockwise order: Update keeps the
// polygon cached, with an axis-aligned box inside it whose corners are
// each inside the polygon by a margin far above rounding. A point
// strictly inside the box is dismissed after four comparisons; any
// other point goes on to the one triangle of the polygon's fan that
// could hold it, found by binary search, and the slots are scanned
// only when the point is not inside that triangle by the margin. The
// scan remains the only thing that ever writes a slot, so slots, ties
// and frames are exactly what scanning every point produces
// (ref_test.go keeps the scan-everything Update as the oracle;
// diff_test.go holds Update to its bytes).
package kernel

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
)

// Kernel is a mergeable directional-width kernel. The zero value is
// not usable; use New. Not safe for concurrent use.
type Kernel struct {
	m       int // number of grid directions in [0, π)
	n       uint64
	has     []bool      // per half-direction: any point seen yet
	best    []gen.Point // extreme point per half-direction (2m of them)
	bestDot []float64   // its dot product
	cos     []float64
	sin     []float64

	// Interior filter (see interior): hull is the stored extremes in
	// slot order, neighbours de-duplicated — a convex polygon of seen
	// points, counter-clockwise — as of the last rebuild; empty while
	// no filter applies. It may lag the slots: slots only ever move
	// outwards, so an old polygon rejects fewer points, never a wrong
	// one.
	hull   []gen.Point
	box    box        // inside hull, each corner by the margin; empty with hull
	scale  float64    // max |coordinate| over hull
	margin float64    // marginRel·scale², what a triangle test must clear
	fresh  bool       // no slot has changed since hull was built
	trust  trustLevel // whether best[] is known to respect bestDot[]
}

// box is an axis-aligned rectangle, open on every side; the zero value
// holds no point (NaN coordinates fall outside every box too).
type box struct{ x0, y0, x1, y1 float64 }

// holds reports whether p is strictly inside b. Its four comparisons
// are and-ed without short-circuiting, into one branch: on a ring,
// where about half the points pass the x test and then fail the y
// test, a branch per comparison would mispredict on them.
func (b box) holds(p gen.Point) bool {
	return bit(b.x0 < p.X)&bit(p.X < b.x1)&bit(b.y0 < p.Y)&bit(p.Y < b.y1) != 0
}

// bit is 1 for true and 0 for false; it compiles to a SETcc.
func bit(c bool) uint8 {
	if c {
		return 1
	}
	return 0
}

// trustLevel says whether every stored point is known to lie on the
// inner side of every slot's support value. Update and Merge keep that
// true from an empty kernel; a decoded frame only claims it.
type trustLevel uint8

const (
	trusted trustLevel = iota // built here by Update/Merge, or checked
	decoded                   // points came off the wire, unchecked so far
	refuted                   // a stored point beats a support value: no filter
)

const (
	// marginRel·scale² is the least doubled area a rejected point must
	// span with each side of its triangle: ≥ 3.5e-10·scale inside
	// every side, against ~1e-15·scale² rounding in a cross product
	// and ~3e-16·scale in a dot product.
	marginRel = 1e-9
	// trustRel·scale is the slack a decoded frame's support values get
	// (another platform may round a dot product or a grid cosine the
	// other way): far above rounding, far below the margin.
	trustRel = 1e-12
	// The filter is off outside this coordinate range, where scale²
	// or a cross product would leave the normal doubles.
	minScale, maxScale = 1e-150, 1e150
)

// New returns an empty kernel over m >= 2 grid directions (2m extreme
// slots). Two kernels merge iff they share m.
func New(m int) *Kernel {
	if m < 2 {
		panic("kernel: need at least 2 directions")
	}
	k := &Kernel{m: m}
	k.grow()
	return k
}

// grow gives k its 2m slots, all empty, and the grid of its m
// directions, in the storage it already has where that fits; a grid of
// m directions is kept. A kernel decoded from an empty frame holds no
// slots until its first point or merge, so that decoding costs what
// the frame holds: an empty kernel's frame is one byte per slot.
func (k *Kernel) grow() {
	m := k.m
	k.has = codec.Resize(k.has, 2*m)
	k.best = codec.Resize(k.best, 2*m)
	k.bestDot = codec.Resize(k.bestDot, 2*m)
	clear(k.has)
	clear(k.best)
	clear(k.bestDot)
	if len(k.cos) == m {
		return
	}
	k.cos = codec.Resize(k.cos, m)
	k.sin = codec.Resize(k.sin, m)
	for i := 0; i < m; i++ {
		theta := math.Pi * float64(i) / float64(m)
		k.cos[i] = math.Cos(theta)
		k.sin[i] = math.Sin(theta)
	}
}

// NewEpsilon returns a kernel whose grid is fine enough for relative
// width error at most eps on inputs with diameter-to-width ratio up to
// 4; see NewEpsilonAspect.
func NewEpsilon(eps float64) *Kernel {
	return NewEpsilonAspect(eps, 4)
}

// NewEpsilonAspect returns a kernel with relative width error at most
// eps on inputs whose diameter-to-width (aspect) ratio is at most
// aspect: the width error of a direction grid with angular step δ is
// ~2·sin(δ)·diameter, so m = ceil(π·aspect/eps) grid directions
// suffice.
//
// Substitution note (DESIGN.md §2): the paper's O(1/√ε)-size kernel
// uses the Agarwal–Har-Peled–Varadarajan normalization, which requires
// all sites to agree on a data-dependent affine frame; the fixed
// direction grid used here is the paper's "common reference frame"
// requirement made explicit, trading size O(aspect/ε) for exact
// mergeability (see Merge).
func NewEpsilonAspect(eps, aspect float64) *Kernel {
	if eps <= 0 || eps >= 1 {
		panic("kernel: eps must be in (0, 1)")
	}
	if aspect < 1 {
		panic("kernel: aspect must be >= 1")
	}
	m := int(math.Ceil(math.Pi * aspect / eps))
	if m < 2 {
		m = 2
	}
	return New(m)
}

// Directions returns the number of grid directions m.
func (k *Kernel) Directions() int { return k.m }

// N returns the number of points observed, including merges.
func (k *Kernel) N() uint64 { return k.n }

// Size returns the number of stored extreme points (with
// multiplicity; distinct points may be fewer).
func (k *Kernel) Size() int {
	c := 0
	for _, h := range k.has {
		if h {
			c++
		}
	}
	return c
}

// Update observes one point. A point strictly inside the cached box,
// or inside a triangle of three stored extremes, can win no slot and
// is dismissed after four comparisons or a binary search (see
// interior); every other point pays the scan over all 2m slots, which
// is also what decides every slot, so the kernel's state is exactly
// what scanning every point would have produced.
func (k *Kernel) Update(p gen.Point) {
	k.n++
	if k.interior(p) {
		debugRejected(k, p)
		return
	}
	if len(k.has) == 0 {
		k.grow()
	}
	changed := false
	for i := 0; i < k.m; i++ {
		d := p.X*k.cos[i] + p.Y*k.sin[i]
		if k.offer(i, p, d) { // +direction
			changed = true
		}
		if k.offer(i+k.m, p, -d) { // −direction
			changed = true
		}
	}
	if changed {
		k.fresh = false
	} else if !k.fresh {
		// A scan the filter should have saved, and slots have moved
		// since the polygon was built: now is when rebuilding pays.
		k.rebuild()
	}
}

// offer gives slot the point p with dot product d and reports whether
// p took it; on a tie the point already there keeps the slot.
func (k *Kernel) offer(slot int, p gen.Point, d float64) bool {
	if !k.has[slot] || d > k.bestDot[slot] {
		k.has[slot] = true
		k.best[slot] = p
		k.bestDot[slot] = d
		return true
	}
	return false
}

// beats reports whether a scan would hand p a slot, with slack given
// away to the stored support values.
func (k *Kernel) beats(p gen.Point, slack float64) bool {
	for i := 0; i < k.m; i++ {
		d := p.X*k.cos[i] + p.Y*k.sin[i]
		if !k.has[i] || d > k.bestDot[i]+slack || !k.has[i+k.m] || -d > k.bestDot[i+k.m]+slack {
			return true
		}
	}
	return false
}

// interior reports whether p provably wins no slot: it lies strictly
// inside the cached box, or inside the triangle (v0, v_j, v_j+1) of
// the cached polygon by the margin on all three sides. A point inside
// a triangle of three seen points has, in every direction u, ⟨p,u⟩
// below the largest of the three — by at least its distance to the
// nearest side — and each slot's support value is at least that. A
// point inside the box is a convex combination of its four corners, so
// ⟨p,u⟩ is at most the largest corner's, and each corner passed the
// triangle test when the box was kept. Nothing else is relied on: the
// binary search for the wedge of v0's fan that holds p only picks
// which triangle to try, so a polygon that rounding left slightly
// non-convex, or that has fallen behind the slots, costs rejections,
// not correctness. The box is the cheap first try: four comparisons,
// and a branch the predictor gets right whenever most points land in
// it, where the binary search mispredicts on about every point.
func (k *Kernel) interior(p gen.Point) bool {
	if k.box.holds(p) {
		return true
	}
	h := k.hull
	if len(h) < 3 || !(math.Abs(p.X) <= k.scale && math.Abs(p.Y) <= k.scale) {
		return false
	}
	v0 := h[0]
	px, py := p.X-v0.X, p.Y-v0.Y
	lo, hi := 1, len(h)-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if (h[mid].X-v0.X)*py-(h[mid].Y-v0.Y)*px >= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := h[lo], h[hi]
	return (a.X-v0.X)*py-(a.Y-v0.Y)*px >= k.margin &&
		(b.X-a.X)*(p.Y-a.Y)-(b.Y-a.Y)*(p.X-a.X) >= k.margin &&
		(v0.X-b.X)*(p.Y-b.Y)-(v0.Y-b.Y)*(p.X-b.X) >= k.margin
}

// rebuild recomputes the cached polygon from the slots, into the
// storage it already has, and its box; it leaves both empty — no
// filter — while a slot is still unfilled (a scan would fill it) or the
// polygon is not usable.
func (k *Kernel) rebuild() {
	k.fresh = true
	h, scale := k.hull[:0], 0.0
	for slot, p := range k.best {
		if !k.has[slot] {
			h = h[:0]
			break
		}
		if len(h) > 0 && h[len(h)-1] == p {
			continue
		}
		h = append(h, p)
		scale = math.Max(scale, math.Max(math.Abs(p.X), math.Abs(p.Y)))
	}
	if len(h) > 1 && h[len(h)-1] == h[0] {
		h = h[:len(h)-1]
	}
	if !k.usable(h, scale) {
		h = h[:0]
	}
	k.hull, k.scale, k.margin, k.box = h, scale, marginRel*scale*scale, box{}
	if len(h) > 0 {
		k.box = k.fitBox()
	}
}

// fitBox returns the box of the polygon's bounding-box centre and
// aspect ratio, scaled to the largest that fits the polygon and then
// shrunk by 0.1 % — or the empty box unless each of its four corners
// passes interior's triangle test, which is what the box's soundness
// rests on; the arithmetic before that only proposes a box. For each
// edge a→b of the counter-clockwise polygon, with outward normal
// n = (b.Y−a.Y, a.X−b.X), the box c ± λ·(wx, wy) stays on the inner
// side iff λ·(|nx|·wx + |ny|·wy) ≤ ⟨n, a−c⟩, the centre's slack.
func (k *Kernel) fitBox() box {
	h := k.hull
	lo, hi := h[0], h[0]
	for _, v := range h[1:] {
		lo.X, lo.Y = math.Min(lo.X, v.X), math.Min(lo.Y, v.Y)
		hi.X, hi.Y = math.Max(hi.X, v.X), math.Max(hi.Y, v.Y)
	}
	cx, cy, wx, wy := (lo.X+hi.X)/2, (lo.Y+hi.Y)/2, (hi.X-lo.X)/2, (hi.Y-lo.Y)/2
	lambda, a := math.Inf(1), h[len(h)-1]
	for _, b := range h {
		nx, ny := b.Y-a.Y, a.X-b.X
		slack := nx*(a.X-cx) + ny*(a.Y-cy)
		if !(slack > 0) {
			return box{} // the centre is not inside this edge
		}
		lambda = math.Min(lambda, slack/(math.Abs(nx)*wx+math.Abs(ny)*wy))
		a = b
	}
	lambda *= 0.999
	bx := box{cx - lambda*wx, cy - lambda*wy, cx + lambda*wx, cy + lambda*wy}
	for _, c := range [4]gen.Point{{X: bx.x0, Y: bx.y0}, {X: bx.x1, Y: bx.y0}, {X: bx.x1, Y: bx.y1}, {X: bx.x0, Y: bx.y1}} {
		if !k.interior(c) { // k.box is empty here: this is the triangle test
			return box{}
		}
	}
	return bx
}

// usable reports whether the polygon h of all stored points, largest
// |coordinate| scale, may filter: it has a triangle, its coordinates
// are finite and inside [minScale, maxScale], and its points respect
// the support values — which a decoded frame has to show once, every
// stored point against every slot.
func (k *Kernel) usable(h []gen.Point, scale float64) bool {
	if len(h) < 3 || !(scale >= minScale && scale <= maxScale) || k.trust == refuted {
		return false
	}
	if k.trust == decoded {
		for _, v := range h {
			if k.beats(v, trustRel*scale) {
				k.trust = refuted
				return false
			}
		}
		k.trust = trusted
	}
	return true
}

// Merge folds other into k: per-slot maximum, which is exact. other is
// not modified.
func (k *Kernel) Merge(other *Kernel) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if k.m != other.m {
		return fmt.Errorf("%w: kernel grid %d vs %d", core.ErrMismatchedShape, k.m, other.m)
	}
	k.n += other.n
	if len(k.has) == 0 && len(other.has) != 0 {
		k.grow()
	}
	for slot := range other.has {
		if other.has[slot] && k.offer(slot, other.best[slot], other.bestDot[slot]) {
			k.fresh = false
		}
	}
	if other.trust > k.trust {
		k.trust = other.trust
	}
	return nil
}

// Points returns the stored extreme points (deduplicated).
func (k *Kernel) Points() []gen.Point {
	seen := make(map[gen.Point]bool)
	var out []gen.Point
	for slot, h := range k.has {
		if h && !seen[k.best[slot]] {
			seen[k.best[slot]] = true
			out = append(out, k.best[slot])
		}
	}
	return out
}

// Width estimates the directional width of the observed point set
// along (cos θ, sin θ): the width of the kernel's point set, which
// never exceeds the true width and is within the grid discretization
// error of it.
func (k *Kernel) Width(theta float64) float64 {
	ux, uy := math.Cos(theta), math.Sin(theta)
	lo, hi := math.Inf(1), math.Inf(-1)
	seen := false
	for slot, h := range k.has {
		if !h {
			continue
		}
		seen = true
		d := k.best[slot].X*ux + k.best[slot].Y*uy
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if !seen {
		return 0
	}
	return hi - lo
}

// GridSupport returns, for grid slot i in [0, 2m), the exact support
// value max ⟨p, u_i⟩ over all observed points; used by tests to verify
// that merging is lossless on the grid.
func (k *Kernel) GridSupport(slot int) (float64, bool) {
	if slot < 0 || slot >= 2*k.m {
		panic("kernel: slot out of range")
	}
	if len(k.has) == 0 {
		return 0, false
	}
	return k.bestDot[slot], k.has[slot]
}

// Clone returns a deep copy.
func (k *Kernel) Clone() *Kernel {
	c := New(k.m)
	c.n = k.n
	copy(c.has, k.has)
	copy(c.best, k.best)
	copy(c.bestDot, k.bestDot)
	c.trust = k.trust
	return c
}

// Reset restores the kernel to its freshly-constructed state.
func (k *Kernel) Reset() {
	k.n = 0
	for i := range k.has {
		k.has[i] = false
		k.bestDot[i] = 0
	}
	k.hull, k.box, k.fresh, k.trust = k.hull[:0], box{}, false, trusted
}
