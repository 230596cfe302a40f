// Geostats demonstrates the geometric mergeable summaries (PODS'12
// §4–5) on a fleet-telemetry scenario: 10 regions each observe GPS-ish
// point clouds; each keeps (a) a range-counting ε-approximation for
// "how many events in this rectangle?" dashboards and (b) a
// directional-width kernel for "how spread out is the fleet?"
// monitoring. Headquarters merges both kinds and answers queries that
// are checked against the exact point set: a count error beyond εn or
// a width error beyond ε of the exact width is a broken guarantee, and
// the program panics.
package main

import (
	"fmt"
	"math"

	mergesum "repro"
	"repro/internal/exact"
	"repro/internal/gen"
)

const (
	regions   = 10
	perRegion = 20000
	rangeEps  = 0.02
	kernelEps = 0.05
)

func main() {
	box := mergesum.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}

	var all []mergesum.Point
	rangeSums := make([]*mergesum.RangeCounter, regions)
	kernels := make([]*mergesum.Kernel, regions)
	for r := 0; r < regions; r++ {
		// Each region's activity clusters differently.
		pts := gen.ClusteredPoints(perRegion, 3+r%4, 0.02+0.01*float64(r%3), uint64(r)+1)
		for i := range pts {
			// Clamp into the unit box so the dashboard box covers all.
			pts[i].X = math.Min(1, math.Max(0, pts[i].X))
			pts[i].Y = math.Min(1, math.Max(0, pts[i].Y))
		}
		rangeSums[r] = mergesum.NewRangeCounter(rangeEps, box, uint64(r)+50)
		kernels[r] = mergesum.NewKernel(kernelEps)
		for _, p := range pts {
			rangeSums[r].Update(p)
			kernels[r].Update(p)
		}
		all = append(all, pts...)
	}

	rc, err := mergesum.MergeBinary(rangeSums, (*mergesum.RangeCounter).Merge)
	if err != nil {
		panic(err)
	}
	kn, err := mergesum.MergeBinary(kernels, (*mergesum.Kernel).Merge)
	if err != nil {
		panic(err)
	}

	n := len(all)
	fmt.Printf("regions=%d events=%d  range summary: %d points (%.3g%% of data)\n\n",
		regions, n, rc.Size(), 100*float64(rc.Size())/float64(n))

	broken := false
	fmt.Printf("%-34s %-10s %-10s %-8s\n", "rectangle", "estimate", "exact", "err/n")
	for _, q := range []mergesum.Rect{
		{X0: 0, Y0: 0, X1: 0.5, Y1: 0.5},
		{X0: 0.25, Y0: 0.25, X1: 0.75, Y1: 0.75},
		{X0: 0.6, Y0: 0.1, X1: 0.95, Y1: 0.4},
		{X0: 0.05, Y0: 0.7, X1: 0.3, Y1: 0.98},
	} {
		got := rc.RangeCount(q)
		want := exact.RangeCount(all, q)
		e := math.Abs(float64(got)-float64(want)) / float64(n)
		broken = broken || e > rangeEps
		fmt.Printf("[%.2f,%.2f]x[%.2f,%.2f]%12d %10d %8.4f%%\n",
			q.X0, q.X1, q.Y0, q.Y1, got, want, 100*e)
	}

	fmt.Printf("\nfleet extent (kernel of %d extreme points):\n", len(kn.Points()))
	fmt.Printf("%-10s %-10s %-10s\n", "direction", "kernel", "exact")
	for _, deg := range []float64{0, 30, 60, 90, 120, 150} {
		theta := deg * math.Pi / 180
		got, want := kn.Width(theta), exact.DirectionalWidth(all, theta)
		broken = broken || math.Abs(got-want) > kernelEps*want
		fmt.Printf("%6.0f°    %-10.4f %-10.4f\n", deg, got, want)
	}
	if broken {
		panic(fmt.Sprintf("geostats: an error exceeds its summary's bound (range count %g·n, width %g)", rangeEps, kernelEps))
	}
}
