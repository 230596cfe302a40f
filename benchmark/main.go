// Command benchmark is the repository's ruler: four fixed-script
// workloads against in-process summaryd servers on loopback, eight
// reference-normalised end-to-end metrics, and a shadow-traced layer
// breakdown. See README.md in this directory for the design and
// BENCHMARK.json at the repository root for the contract it meets.
//
// The driver's form, one workload per process, result as the last line:
//
//	bash benchmark/run.sh --workload merge_heavy --seed 3 --seconds 12 --trace 0
//
// Without --workload every workload is run, end to end and traced, and
// the metrics are printed as tables; -aa k runs the A/A self-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

var workloads = []workload{edgeWorkload, mergeWorkload, windowWorkload, clusterWorkload}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all, end to end and traced)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs; the program under test sees only the inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "measured work, in seconds at reference speed; turned into whole fixed-count rounds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from untraced rounds; 1: layer metrics from a traced round and the probes")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "where a --trace 1 run writes trace-<workload>.json (empty: nowhere)")
		quick    = flag.Bool("quick", false, "smoke test: one round, operation counts ÷ 50")
		aa       = flag.Int("aa", 0, "A/A self-check: 2k whole runs split alternately into two sets")
		aaOut    = flag.String("aa-out", "benchmark/baseline/aa.json", "where -aa writes its report")
		verbose  = flag.Bool("v", false, "print per-round values on standard error")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it, and exit")
		jsonOut  = flag.String("out", "", "with no --workload: also write every metric to this JSON file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *spec {
		data, err := json.MarshalIndent(currentSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	cfg := runConfig{seed: *seed, rounds: roundsFor(*seconds), div: 1, trace: *trace != 0, verbose: *verbose}
	if cfg.trace {
		cfg.traceDir = *traceDir
	}
	if *quick {
		cfg.rounds, cfg.div = 1, quickDiv
	}

	ref, err := newRefKernel(refIters / cfg.div)
	if err != nil {
		fatal(err)
	}
	defer ref.close()
	// The kernel's first run pays for cold caches and lazily created
	// runtime threads; it is not a measurement.
	if _, err := ref.run(); err != nil {
		fatal(err)
	}

	switch {
	case *aa > 0:
		if err := runAA(*aa, cfg, ref, *aaOut); err != nil {
			fatal(err)
		}
	case *name == "":
		if err := runAll(cfg, ref, *jsonOut); err != nil {
			fatal(err)
		}
	default:
		wl, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		out, err := runWorkload(wl, cfg, ref)
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, out)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{out.Correct, out.Attempted, out.Failed, out.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !out.Correct {
			// The result line is still printed, with correct=false;
			// the exit code says the same to a human.
			ref.close()
			os.Exit(2)
		}
	}
}

const (
	defaultSeconds = 12
	quickDiv       = 50
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printMetrics lists every metric of a run by name with its unit.
func printMetrics(w *os.File, out *runOutput) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s  script=%016x  attempted=%d failed=%d correct=%t\n",
		out.Workload, out.ScriptHash, out.Attempted, out.Failed, out.Correct)
	for _, p := range out.Problems {
		fmt.Fprintf(w, "# PROBLEM: %s\n", p)
	}
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
