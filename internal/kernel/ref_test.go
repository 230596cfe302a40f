package kernel

import "repro/internal/gen"

// refUpdate is Update as this package shipped it before the interior
// filter — every point pays the scan over all 2m slots — kept verbatim
// as the differential oracle: Update must leave a kernel encoding to
// the same bytes after every operation.
func refUpdate(k *Kernel, p gen.Point) {
	k.n++
	for i := 0; i < k.m; i++ {
		d := p.X*k.cos[i] + p.Y*k.sin[i]
		refOffer(k, i, p, d)      // +direction
		refOffer(k, i+k.m, p, -d) // −direction
	}
}

func refOffer(k *Kernel, slot int, p gen.Point, d float64) {
	if !k.has[slot] || d > k.bestDot[slot] {
		k.has[slot] = true
		k.best[slot] = p
		k.bestDot[slot] = d
	}
}
