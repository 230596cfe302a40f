package gen

import (
	"math"

	"repro/internal/core"
)

// FlowTrace synthesizes a packet-level network trace with the
// statistical shape of the CAIDA-style captures this literature
// usually evaluates on (see DESIGN.md §2 on substitutions): flow sizes
// are Pareto-distributed (heavy-tailed, "elephants and mice"), packets
// of concurrently active flows interleave, and the active flow set
// churns over time as flows finish and new ones start.
type FlowTrace struct {
	// ActiveFlows is the number of concurrently active flows.
	ActiveFlows int
	// ParetoAlpha is the flow-size tail index (1.1–1.5 is typical for
	// internet traffic; smaller = heavier elephants).
	ParetoAlpha float64
	// MinFlowSize is the minimum packets per flow.
	MinFlowSize int
	// Seed makes the trace reproducible.
	Seed uint64
}

// flowState is one active flow.
type flowState struct {
	id        core.Item
	remaining int
}

// Generate produces n packet arrivals: each element is the flow ID of
// one packet. Flow IDs are unique across the trace (finished flows
// never reappear), sizes are Pareto(alpha) and packets interleave
// uniformly over active flows.
func (ft FlowTrace) Generate(n int) []core.Item {
	if ft.ActiveFlows < 1 {
		ft.ActiveFlows = 1
	}
	if ft.ParetoAlpha <= 0 {
		ft.ParetoAlpha = 1.2
	}
	if ft.MinFlowSize < 1 {
		ft.MinFlowSize = 1
	}
	rng := NewRNG(ft.Seed)
	nextID := core.Item(1)
	newFlow := func() flowState {
		// Pareto via inverse CDF: size = min / U^(1/alpha).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		size := int(float64(ft.MinFlowSize) / math.Pow(u, 1/ft.ParetoAlpha))
		if size < ft.MinFlowSize {
			size = ft.MinFlowSize
		}
		const maxFlow = 1 << 22 // cap the tail so one flow cannot swallow the trace
		if size > maxFlow {
			size = maxFlow
		}
		f := flowState{id: nextID, remaining: size}
		nextID++
		return f
	}
	active := make([]flowState, ft.ActiveFlows)
	for i := range active {
		active[i] = newFlow()
	}
	out := make([]core.Item, 0, n)
	// Burst model: a selected flow emits a run of packets scaled with
	// its remaining size (large flows send at higher rates), which is
	// what makes packet counts heavy-tailed like real traces — flow
	// *sizes* alone do not, because uniform interleaving would give
	// every active flow the same packet rate.
	const maxBurst = 64
	for len(out) < n {
		j := rng.Intn(len(active))
		burst := active[j].remaining / 4
		if burst < 1 {
			burst = 1
		}
		if burst > maxBurst {
			burst = maxBurst
		}
		for b := 0; b < burst && len(out) < n; b++ {
			out = append(out, active[j].id)
			active[j].remaining--
			if active[j].remaining == 0 {
				active[j] = newFlow()
				break
			}
		}
	}
	return out
}
