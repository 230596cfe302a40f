package gen

import (
	"testing"

	"repro/internal/core"
)

// backbone returns parameters resembling a backbone capture.
func backbone(seed uint64) FlowTrace {
	return FlowTrace{ActiveFlows: 4096, ParetoAlpha: 1.2, MinFlowSize: 1, Seed: seed}
}

func TestFlowTraceBasics(t *testing.T) {
	ft := backbone(1)
	trace := ft.Generate(100000)
	if len(trace) != 100000 {
		t.Fatalf("len = %d", len(trace))
	}
	counts := make(map[core.Item]int)
	for _, x := range trace {
		counts[x]++
	}
	if len(counts) < ft.ActiveFlows {
		t.Errorf("only %d distinct flows, want at least %d", len(counts), ft.ActiveFlows)
	}
	// Heavy tail: the biggest flow should dwarf the median flow.
	max, total := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		total += c
	}
	if max < 50*total/len(counts)/1 {
		t.Errorf("no elephants: max flow %d vs mean %d", max, total/len(counts))
	}
}

func TestFlowTraceDeterminism(t *testing.T) {
	a := backbone(7).Generate(5000)
	b := backbone(7).Generate(5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed traces differ")
		}
	}
	c := backbone(8).Generate(5000)
	same := true
	for i := 0; i < 100; i++ {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFlowTraceDegenerateParams(t *testing.T) {
	ft := FlowTrace{ActiveFlows: 0, ParetoAlpha: -1, MinFlowSize: 0, Seed: 1}
	trace := ft.Generate(100)
	if len(trace) != 100 {
		t.Fatalf("degenerate params broke generation: %d", len(trace))
	}
}

func TestFlowTraceChurn(t *testing.T) {
	ft := FlowTrace{ActiveFlows: 64, ParetoAlpha: 1.5, MinFlowSize: 1, Seed: 3}
	trace := ft.Generate(50000)
	// The second half must contain flows unseen in the first half
	// (churn), and flow IDs never repeat after finishing: a flow's
	// packet positions are contiguous-ish but IDs increase over time.
	first := make(map[core.Item]bool)
	for _, x := range trace[:25000] {
		first[x] = true
	}
	fresh := 0
	for _, x := range trace[25000:] {
		if !first[x] {
			fresh++
		}
	}
	if fresh == 0 {
		t.Error("no flow churn in second half")
	}
}
