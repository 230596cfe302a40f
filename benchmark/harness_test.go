package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !reflect.DeepEqual(in, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := sortedMicros([]time.Duration{3 * time.Microsecond, 1500 * time.Nanosecond}); !reflect.DeepEqual(got, []float64{1.5, 3}) {
		t.Errorf("sortedMicros = %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	small := make([]float64, 999)
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
		if i < len(small) {
			small[i] = float64(i + 1)
		}
	}
	if pct, v := tailPercentile(small); pct != 90 || v != 900 {
		t.Errorf("999 samples: p%v = %v, want p90 = 900", pct, v)
	}
	if pct, v := tailPercentile(big); pct != 99 || v != 990 {
		t.Errorf("1000 samples: p%v = %v, want p99 = 990 (ten samples beyond it)", pct, v)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v", q1, q2, q3)
	}
}

func TestNormalisation(t *testing.T) {
	// On a machine where the kernel takes twice its nominal time, a
	// measured 10 µs is 5 µs at reference speed and a measured
	// 1000 ops/s is 2000.
	if got := normTime(10, 2*refNominalS); !near(got, 5) {
		t.Errorf("normTime = %v", got)
	}
	if got := normRate(1000, 2*refNominalS); !near(got, 2000) {
		t.Errorf("normRate = %v", got)
	}
	if got := normTime(7, refNominalS); !near(got, 7) {
		t.Errorf("normTime at nominal = %v", got)
	}
	// A rate and its inverse time normalise consistently.
	if t1, r1 := normTime(1/250.0, 0.3), normRate(250, 0.3); !near(t1*r1, 1) {
		t.Errorf("normTime × normRate = %v, want 1", t1*r1)
	}
	if got := roundsFor(12); got != 10 {
		t.Errorf("roundsFor(12) = %d, want 10", got)
	}
	if got := roundsFor(0); got != 1 {
		t.Errorf("roundsFor(0) = %d, want 1", got)
	}
}

// A hand-built tree:
//
//	op.report [0,100]
//	  kernel.update.mg [0,40]
//	  client.call [40,90]          shadow children 20 + 10 → self 20
//	    registry.decode (shadow, 20 long)
//	    node.ingest     (shadow, 10 long)
//	op.pull [100,130]
//	  client.call [100,130]        shadow child 60 long: squeezed to 30
//	    node.encoded (shadow)
//	node.advance_windows [130,140] no operation
func handBuiltTrace() *clientTrace {
	return &clientTrace{spans: []span{
		{Name: "op.report", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "kernel.update.mg", Op: 1, Parent: 0, Start: 0, End: 40},
		{Name: "client.call", Op: 1, Parent: 0, Start: 40, End: 90},
		{Name: "registry.decode", Op: 1, Parent: 2, Shadow: true, Start: 100, End: 120},
		{Name: "node.ingest", Op: 1, Parent: 2, Shadow: true, Start: 120, End: 130},
		{Name: "op.pull", Op: 2, Parent: -1, Start: 100, End: 130},
		{Name: "client.call", Op: 2, Parent: 5, Start: 100, End: 130},
		{Name: "node.encoded", Op: 2, Parent: 6, Shadow: true, Start: 130, End: 190},
		{Name: "node.advance_windows", Op: 3, Parent: -1, Start: 130, End: 140},
	}}
}

func TestSelfTimes(t *testing.T) {
	ct := handBuiltTrace()
	self, squeezed := selfTimes(ct.spans)
	want := []int64{10, 40, 20, 20, 10, 0, 0, 30, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if squeezed != 1 {
		t.Errorf("squeezed = %d, want 1", squeezed)
	}
	ts := summarize([]*clientTrace{ct})
	if ts.rootNs != 130 {
		t.Errorf("Σ root = %d, want 130 (the ticker's span is no operation)", ts.rootNs)
	}
	if ts.sumError != 0 {
		t.Errorf("self times do not sum to the roots: error %v", ts.sumError)
	}
	wantLayers := map[string]int64{"client": 10, "kernel": 40, "wire": 20, "decode": 20, "merge": 10, "encode": 30}
	if !reflect.DeepEqual(ts.layerNs, wantLayers) {
		t.Errorf("layers = %v, want %v", ts.layerNs, wantLayers)
	}
	if ts.shadowed != 2 || ts.shadowOK != 1 {
		t.Errorf("shadowed %d ok %d, want 2 and 1", ts.shadowed, ts.shadowOK)
	}
	if !reflect.DeepEqual(ts.wireWrites, []int64{20}) || !reflect.DeepEqual(ts.wireReads, []int64{0}) {
		t.Errorf("wire self: writes %v reads %v", ts.wireWrites, ts.wireReads)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *clientTrace
	i := tr.begin("op.push", -1, false)
	tr.end(i)
	if j := tr.record("client.call", i, time.Now(), time.Now()); j != -1 || i != -1 {
		t.Errorf("nil tracer returned span indices %d, %d", i, j)
	}
}

func TestWriteSpans(t *testing.T) {
	dir := t.TempDir()
	path, err := writeSpans(dir, "hand", []*clientTrace{handBuiltTrace()})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []map[string]any
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if doc.Workload != "hand" || len(doc.Spans) != 9 {
		t.Errorf("span file holds workload %q with %d spans", doc.Workload, len(doc.Spans))
	}
}

func TestWindowFrom(t *testing.T) {
	for _, tc := range []struct{ to, span, want uint64 }{
		{300, 8, 293},  // inside level 0's horizon: any start
		{300, 64, 233}, // 237 moved down to a block start (≡ 1 mod 8)
		{300, 200, 97}, // 101 → 97
		{304, 64, 241}, // already aligned
		{1000, 200, 801},
	} {
		got := windowFrom(tc.to, tc.span)
		if got != tc.want {
			t.Errorf("windowFrom(%d, %d) = %d, want %d", tc.to, tc.span, got, tc.want)
		}
		if tc.span > 32 && (got-1)%8 != 0 {
			t.Errorf("windowFrom(%d, %d) = %d is not on a level-1 block boundary", tc.to, tc.span, got)
		}
		if tc.to-got+1 < tc.span || tc.to-got+1 >= tc.span+8 {
			t.Errorf("windowFrom(%d, %d) = %d covers %d epochs", tc.to, tc.span, got, tc.to-got+1)
		}
	}
}

func TestScaled(t *testing.T) {
	if got := scaled(43200, 1, 96); got != 43200 {
		t.Errorf("scaled full = %d", got)
	}
	if got := scaled(43200, 50, 96); got != 864 || got%96 != 0 {
		t.Errorf("scaled ÷50 = %d", got)
	}
	if got := scaled(92, 50, 2); got != 2 {
		t.Errorf("scaled floor = %d", got)
	}
}

// The metric lists are what BENCHMARK.json declares; the contract caps
// them at 16 and 128 and wants every name used once.
func TestMetricSpecs(t *testing.T) {
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs} {
		for _, m := range specs {
			if seen[m.Name] {
				t.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
			if len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v breaks a limit of the contract", m)
			}
		}
	}
	for _, m := range endToEndSpecs {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
}

// BENCHMARK.json at the repository root must declare exactly what the
// program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs from endToEndSpecs:\n json %+v\n code %+v", doc.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs from perLayerSpecs (%d vs %d entries)", len(doc.PerLayer), len(perLayerSpecs))
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: json %q / code %q (or their reasons) differ", i, doc.Workloads[i].Name, wl.name)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: reason is %d characters, the contract allows 200", wl.name, len(wl.why))
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	// Every run makes 4 + 22 × workloads runs; with set-up and two
	// builds they must fit in 3420 s. expectedRunS is generous.
	const expectedRunS, buildsS = 24.0, 120.0
	if total := float64(4+22*len(workloads))*expectedRunS + buildsS; total > 3420 {
		t.Errorf("expected driver time %.0f s exceeds 3420 s", total)
	}
}

// cluster_small dials two fresh connections per PULLC. Each closes on
// the dialling side and lingers in TIME_WAIT for 60 s, and one
// destination port has about 28 000 ephemeral source ports. A run
// lasts well under 60 s, and every run listens on new ports, so the
// budget is per run: all of its dials to one node must stay below it.
func TestTimeWaitBudget(t *testing.T) {
	const ephemeralPorts = 28000
	readsPerRound := clients * (clusterWrites / clusterReadEvery)
	pullcPerRound := readsPerRound * 3 / 4
	dialsPerRound := pullcPerRound * (clusterNodes - 1)
	// Rounds the last instance of a run serves: the preload's quarter,
	// the warm-up, the measured rounds; a layer run adds a traced
	// round whose shadow replay dials as often again.
	endToEnd := 0.25 + 1 + float64(roundsFor(defaultSeconds))
	layer := 0.25 + 1 + traceRounds + 2
	verify := float64(clients * clusterSlots * clusterNodes * (clusterNodes - 1))
	for name, rounds := range map[string]float64{"end-to-end": endToEnd, "layer": layer} {
		perNode := (rounds*float64(dialsPerRound) + verify) / clusterNodes
		t.Logf("%s run: %.0f dials per destination", name, perNode)
		if perNode > ephemeralPorts*0.8 {
			t.Errorf("%s run: %.0f dials to one node, budget %d", name, perNode, ephemeralPorts)
		}
	}
}

func quickConfig(seed uint64, trace bool, dir string) runConfig {
	return runConfig{seed: seed, rounds: 1, div: quickDiv, trace: trace, traceDir: dir}
}

func quickRef(t *testing.T) *refKernel {
	t.Helper()
	ref, err := newRefKernel(refIters / quickDiv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.close)
	return ref
}

// Same seed ⇒ same script, answer_bytes and err_over_bound; another
// seed ⇒ another script.
func TestScriptDeterminism(t *testing.T) {
	ref := quickRef(t)
	for _, wl := range workloads {
		a, err := runWorkload(wl, quickConfig(1, false, ""), ref)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(wl, quickConfig(1, false, ""), ref)
		if err != nil {
			t.Fatal(err)
		}
		c, err := runWorkload(wl, quickConfig(2, false, ""), ref)
		if err != nil {
			t.Fatal(err)
		}
		if a.ScriptHash != b.ScriptHash {
			t.Errorf("%s: seed 1 gave scripts %016x and %016x", wl.name, a.ScriptHash, b.ScriptHash)
		}
		if a.ScriptHash == c.ScriptHash {
			t.Errorf("%s: seeds 1 and 2 gave the same script %016x", wl.name, a.ScriptHash)
		}
		for _, m := range []string{"answer_bytes", "err_over_bound"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", wl.name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		for _, out := range []*runOutput{a, b, c} {
			if !out.Correct {
				t.Errorf("%s: output checks failed: %v", wl.name, out.Problems)
			}
			if v := out.Metrics["err_over_bound"].Value; v <= 0 || v > 1 {
				t.Errorf("%s: err_over_bound = %v", wl.name, v)
			}
		}
	}
}

// The smoke test: one round at a fiftieth of the counts, all four
// workloads, end to end and traced, inside ten seconds — and every run
// emits exactly the metrics BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	ref := quickRef(t)
	dir := t.TempDir()
	names := func(specs []metricSpec) []string {
		out := make([]string, len(specs))
		for i, m := range specs {
			out[i] = m.Name
		}
		sort.Strings(out)
		return out
	}
	emitted := func(out *runOutput, specs []metricSpec) {
		t.Helper()
		var got []string
		for n := range out.Metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		if want := names(specs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted metrics differ from the declared ones:\n got %v\nwant %v", out.Workload, got, want)
		}
		for _, m := range specs {
			if out.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", out.Workload, m.Name, out.Metrics[m.Name].Unit, m.Unit)
			}
			if v := out.Metrics[m.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: %s = %v", out.Workload, m.Name, v)
			}
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d problems=%v", out.Workload, out.Correct, out.Attempted, out.Failed, out.Problems)
		}
	}
	for _, wl := range workloads {
		e2e, err := runWorkload(wl, quickConfig(3, false, ""), ref)
		if err != nil {
			t.Fatal(err)
		}
		emitted(e2e, endToEndSpecs)
		for _, m := range endToEndSpecs {
			if e2e.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", wl.name, m.Name)
			}
		}
		layer, err := runWorkload(wl, quickConfig(3, true, dir), ref)
		if err != nil {
			t.Fatal(err)
		}
		emitted(layer, perLayerSpecs)
		if e := layer.Metrics["trace.sum_error"].Value; e > 0.01 {
			t.Errorf("%s: self times miss the root spans by %.2f%%", wl.name, 100*e)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", wl.name, err)
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke test took %v, want under 10 s", d)
	}
}
