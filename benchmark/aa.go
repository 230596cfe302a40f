package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// runInfo is the environment a report was produced in.
type runInfo struct {
	Go          string  `json:"go"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        uint64  `json:"seed"`
	Rounds      int     `json:"rounds"`
	RoundS      float64 `json:"round_nominal_s"`
	RefNominalS float64 `json:"ref_nominal_s"`
	RefIters    int     `json:"ref_iters"`
	Clients     int     `json:"clients"`
}

func infoFor(cfg runConfig) runInfo {
	return runInfo{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Rounds: cfg.rounds, RoundS: roundNominalS,
		RefNominalS: refNominalS, RefIters: refIters / cfg.div, Clients: clients,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// workloadReport is one workload's full set of metrics: an end-to-end
// run and a layer run.
type workloadReport struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	ScriptHash string                 `json:"script_hash"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer"`
}

// runAll runs every workload end to end and traced, prints every
// metric by name with its unit, and optionally writes them to a file.
// It fails if any output check failed.
func runAll(cfg runConfig, ref *refKernel, jsonOut string) error {
	var reports []workloadReport
	allCorrect := true
	for _, wl := range workloads {
		e2eCfg, layerCfg := cfg, cfg
		e2eCfg.trace, e2eCfg.traceDir = false, ""
		layerCfg.trace = true
		if layerCfg.traceDir == "" {
			layerCfg.traceDir = ".bench_build/trace"
		}
		e2e, err := runWorkload(wl, e2eCfg, ref)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, e2e)
		layer, err := runWorkload(wl, layerCfg, ref)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, layer)
		allCorrect = allCorrect && e2e.Correct && layer.Correct
		reports = append(reports, workloadReport{
			Workload: wl.name, Why: wl.why,
			Correct:   e2e.Correct && layer.Correct,
			Attempted: e2e.Attempted, Failed: e2e.Failed,
			ScriptHash: fmt.Sprintf("%016x", e2e.ScriptHash),
			EndToEnd:   e2e.Metrics, PerLayer: layer.Metrics,
		})
	}
	if jsonOut != "" {
		err := writeJSON(jsonOut, struct {
			Info      runInfo          `json:"info"`
			Workloads []workloadReport `json:"workloads"`
		}{infoFor(cfg), reports})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	if !allCorrect {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

// aaSide is one set of an A/A comparison.
type aaSide struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func sideOf(values []float64) aaSide {
	q1, q2, q3 := quartiles(values)
	return aaSide{Median: q2, Q1: q1, Q3: q3, Values: values}
}

// aaRow is one workload × end-to-end metric of the A/A report.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        aaSide  `json:"a"`
	B        aaSide  `json:"b"`
	// RelDiff is (median B − median A) ÷ median A, signed so that
	// positive means B is worse.
	RelDiff float64 `json:"rel_diff_worse"`
	// Spread is the interquartile range of all 2k values over their
	// median, what the driver calls the metric's spread.
	Spread float64 `json:"spread"`
	Pass   bool    `json:"pass"`
}

// runAA is the A/A self-check: 2k whole runs (every workload, end to
// end) of the same code, assigned alternately to sets A and B, each
// with its own seed as the driver does it. A pair passes when the two
// medians differ by no more than the metric's bound and the spread of
// all values stays within it.
func runAA(k int, cfg runConfig, ref *refKernel, outPath string) error {
	cfg.trace, cfg.traceDir = false, ""
	values := make(map[string]map[string][2][]float64) // workload → metric → set → values
	for i := 0; i < 2*k; i++ {
		set := i % 2
		for _, wl := range workloads {
			runCfg := cfg
			runCfg.seed = cfg.seed + uint64(i)
			out, err := runWorkload(wl, runCfg, ref)
			if err != nil {
				return err
			}
			if !out.Correct {
				printMetrics(os.Stdout, out)
				return fmt.Errorf("%s: output check failed in A/A run %d", wl.name, i+1)
			}
			if values[wl.name] == nil {
				values[wl.name] = make(map[string][2][]float64)
			}
			for name, m := range out.Metrics {
				sets := values[wl.name][name]
				sets[set] = append(sets[set], m.Value)
				values[wl.name][name] = sets
			}
			fmt.Printf("A/A run %d/%d (set %c) %s done\n", i+1, 2*k, 'A'+rune(set), wl.name)
		}
	}
	var rows []aaRow
	pass := true
	fmt.Printf("\n%-15s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound", "")
	for _, wl := range workloads {
		for _, spec := range endToEndSpecs {
			sets := values[wl.name][spec.Name]
			a, b := sideOf(sets[0]), sideOf(sets[1])
			row := aaRow{Workload: wl.name, Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound, A: a, B: b}
			if a.Median != 0 {
				row.RelDiff = (b.Median - a.Median) / a.Median
				if spec.Better == "higher" {
					row.RelDiff = -row.RelDiff
				}
			}
			all := append(append([]float64(nil), sets[0]...), sets[1]...)
			q1, q2, q3 := quartiles(all)
			if q2 != 0 {
				row.Spread = (q3 - q1) / q2
			}
			row.Pass = math.Abs(row.RelDiff) <= spec.Bound && row.Spread <= spec.Bound
			pass = pass && row.Pass
			verdict := "PASS"
			if !row.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("%-15s %-16s %12.5g %12.5g %+7.2f%% %7.2f%% %5.0f%%  %s   A[%.5g, %.5g] B[%.5g, %.5g] %s\n",
				wl.name, spec.Name, a.Median, b.Median, 100*row.RelDiff, 100*row.Spread, 100*spec.Bound, verdict,
				a.Q1, a.Q3, b.Q1, b.Q3, spec.Unit)
			rows = append(rows, row)
		}
	}
	err := writeJSON(outPath, struct {
		Info runInfo `json:"info"`
		K    int     `json:"k"`
		Pass bool    `json:"pass"`
		Rows []aaRow `json:"rows"`
	}{infoFor(cfg), k, pass, rows})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if !pass {
		return fmt.Errorf("A/A self-check failed: two sets of runs of the same code disagree beyond a bound")
	}
	return nil
}
