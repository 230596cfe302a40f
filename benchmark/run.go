package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

const (
	// refNominalS is the reference kernel's wall time on the machine the
	// benchmark was frozen on (median of the builder's runs). Timings are
	// reported as if the kernel took exactly this long, so units stay µs
	// and 1/s "at reference speed". Changing it rescales every timing.
	refNominalS = 0.220
	// refIters sizes the reference kernel to about refNominalS.
	refIters = 5200
	// roundNominalS is what one measured round was calibrated to take at
	// reference speed; --seconds is turned into a whole number of such
	// rounds, never into a time limit.
	roundNominalS = 1.2
	// setupRepeats is how often set-up is executed from scratch.
	setupRepeats = 3
	// traceRounds is the number of untraced rounds a --trace 1 run
	// measures (for the raw and tail layer metrics) before its traced
	// round.
	traceRounds = 3
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's shape.
type runConfig struct {
	seed     uint64
	rounds   int
	div      int  // operation-count divisor (1, or 50 for -quick)
	trace    bool // layer run: fewer rounds, a traced round, the probes
	traceDir string
	verbose  bool // per-round values on standard error
}

// runOutput is what one run of one workload reports.
type runOutput struct {
	Workload   string
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]metricValue
	ScriptHash uint64
	Problems   []string
}

func roundsFor(seconds int) int {
	r := int(math.Round(float64(seconds) / roundNominalS))
	if r < 1 {
		r = 1
	}
	return r
}

// measured is one round with the reference time that brackets it.
type measured struct {
	roundResult
	refS float64
}

// runWorkload performs one complete run: set-up (repeated and timed in
// an end-to-end run), a discarded warm-up round, the measured rounds
// each bracketed by the reference kernel, the output checks, and — in
// a layer run — the traced round and the layer probes.
func runWorkload(wl workload, cfg runConfig, ref *refKernel) (*runOutput, error) {
	out := &runOutput{Workload: wl.name, Metrics: make(map[string]metricValue)}
	problem := func(format string, args ...any) {
		out.Problems = append(out.Problems, fmt.Sprintf(format, args...))
	}

	// Set-up, from scratch each time; the last instance is the one
	// the rounds run against.
	repeats := setupRepeats
	if cfg.trace || cfg.div > 1 {
		repeats = 1
	}
	var inst instance
	var setups []float64
	refBefore, err := ref.run()
	if err != nil {
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = wl.setup(cfg.seed, cfg.div)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS := time.Since(t0).Seconds()
		refAfter, err := ref.run()
		if err != nil {
			inst.close()
			return nil, err
		}
		setups = append(setups, normTime(setupS, (refBefore+refAfter)/2))
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "setup %d  %.3fs  ref %.4fs\n", i+1, setupS, (refBefore+refAfter)/2)
		}
		refBefore = refAfter
	}
	defer inst.close()
	out.ScriptHash = inst.scriptHash()

	// Warm-up round, discarded: pools fill, connections and slots
	// reach the state every later round starts from.
	if _, _, err := runRound(inst, false); err != nil {
		return nil, err
	}

	rounds := cfg.rounds
	if cfg.trace {
		rounds = min(rounds, traceRounds)
	}
	r0, err := ref.run()
	if err != nil {
		return nil, err
	}
	refs := []float64{r0}
	var ms []measured
	for r := 0; r < rounds; r++ {
		res, _, err := runRound(inst, false)
		if err != nil {
			return nil, err
		}
		after, err := ref.run()
		if err != nil {
			return nil, err
		}
		refs = append(refs, after)
		ms = append(ms, measured{res, (refs[r] + refs[r+1]) / 2})
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "round %2d  wall %.3fs  ref %.4fs  ops/s %8.0f  w50 %7.2fus  r50 %8.2fus  cpu/op %6.2fus  alloc/op %.3fKiB\n",
				r+1, res.wallS, ms[r].refS, float64(res.ops)/res.wallS, p50(res.writesUs), p50(res.readsUs),
				res.cpuS*1e6/float64(max(res.ops, 1)), float64(res.allocBytes)/1024/float64(max(res.ops, 1)))
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		if res.firstErr != nil && len(out.Problems) == 0 {
			problem("round %d: %d operations failed, first: %v", r+1, res.failed, res.firstErr)
		}
	}

	var traced *roundResult
	var traces []*clientTrace
	if cfg.trace {
		res, tr, err := runRound(inst, true)
		if err != nil {
			return nil, err
		}
		traced, traces = &res, tr
		out.Attempted += res.attempted
		out.Failed += res.failed
	}

	errOverBound, err := inst.verify()
	if err != nil {
		problem("output check: %v", err)
	} else if errOverBound > 1 {
		problem("err_over_bound %.4f exceeds 1: a summary broke its guarantee", errOverBound)
	}
	out.Correct = len(out.Problems) == 0 && out.Failed == 0 && out.Attempted > 0

	if !cfg.trace {
		endToEnd(out, setups, ms, errOverBound)
		return out, nil
	}
	layerMetrics(out, ms, refs, *traced, traces)
	if err := probeLayers(out, cfg.seed, cfg.div); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if cfg.traceDir != "" {
		if _, err := writeSpans(cfg.traceDir, wl.name, traces); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// perRound returns f over the rounds.
func perRound(ms []measured, f func(m measured) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

func p50(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, 50)
}

// endToEnd fills the eight end-to-end metrics: each is the median over
// the rounds of the per-round value, timings normalised by the round's
// reference time.
func endToEnd(out *runOutput, setups []float64, ms []measured, errOverBound float64) {
	set := func(name, unit string, v float64) { out.Metrics[name] = metricValue{v, unit} }
	set("setup_s", "s", median(setups))
	set("ops_per_s", "1/s", median(perRound(ms, func(m measured) float64 {
		return normRate(float64(m.ops)/m.wallS, m.refS)
	})))
	set("write_p50_us", "us", median(perRound(ms, func(m measured) float64 {
		return normTime(p50(m.writesUs), m.refS)
	})))
	set("read_p50_us", "us", median(perRound(ms, func(m measured) float64 {
		return normTime(p50(m.readsUs), m.refS)
	})))
	set("cpu_us_per_op", "us", median(perRound(ms, func(m measured) float64 {
		return normTime(m.cpuS*1e6/float64(max(m.ops, 1)), m.refS)
	})))
	set("alloc_kb_per_op", "KiB", median(perRound(ms, func(m measured) float64 {
		return float64(m.allocBytes) / 1024 / float64(max(m.ops, 1))
	})))
	set("answer_bytes", "B", median(perRound(ms, func(m measured) float64 { return m.answerBytes })))
	set("err_over_bound", "ratio", errOverBound)
}
