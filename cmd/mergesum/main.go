// Command mergesum is a small CLI over the mergeable-summaries
// library: generate synthetic streams, build summaries, merge summary
// files in any order, and query the result. It demonstrates the
// distributed workflow end to end with durable, checksummed summary
// files.
//
// Usage:
//
//	mergesum gen   -kind zipf -n 100000 -alpha 1.2 -u 5000 -seed 1 -out stream.txt
//	mergesum build -type mg -k 64 -in stream.txt -out s1.mg
//	mergesum merge -type mg -out all.mg s1.mg s2.mg s3.mg
//	mergesum query -type mg -in all.mg -top 10
//	mergesum query -type quantile -in all.q -phi 0.5,0.99
//	mergesum inspect -type mg -in all.mg
//
// Summary types build, query and inspect know: mg, ss (item streams: one
// uint64 per line); gk, quantile (value streams: one float per line).
// merge and push take the kind from the file's own frame tag and work
// for every family in the registry catalog; their -type is only a check.
// merge folds with the family's one registered merge, the one summaryd
// runs, so merging files byte-equals pushing them into one slot.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gk"
	"repro/internal/mg"
	"repro/internal/randquant"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/spacesaving"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "push":
		err = cmdPush(os.Args[2:])
	case "pull":
		err = cmdPull(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mergesum:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mergesum <gen|build|merge|query|inspect|push|pull> [flags]
  gen     -kind zipf|uniform|seq|normal|lognormal -n N [-alpha A] [-u U] [-seed S] -out FILE
  build   -type mg|ss|gk|quantile [-k K | -eps E] [-seed S] -in STREAM -out SUMMARY
  merge   [-type KIND] -out SUMMARY FILE...                                (any registered kind)
  query   -type mg|ss [-top T] [-threshold F] -in SUMMARY
          -type gk|quantile [-phi 0.5,0.9,...] -in SUMMARY
  inspect -type mg|ss|gk|quantile -in SUMMARY
  push    -addr HOST:PORT -slot NAME [-type KIND] -in SUMMARY              (to summaryd)
  pull    -addr HOST:PORT -slot NAME -out SUMMARY                          (from summaryd)`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "zipf", "zipf|uniform|seq|normal|lognormal")
	n := fs.Int("n", 100000, "stream length")
	alpha := fs.Float64("alpha", 1.2, "zipf skew")
	u := fs.Int("u", 5000, "universe size")
	seed := fs.Uint64("seed", 1, "seed")
	out := fs.String("out", "", "output file (one value per line)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // on the early returns; a finished stream is closed below
	w := bufio.NewWriter(f)
	switch *kind {
	case "zipf":
		for _, x := range gen.NewZipf(*u, *alpha, *seed).Stream(*n) {
			fmt.Fprintln(w, uint64(x))
		}
	case "uniform":
		for _, x := range gen.Uniform(*n, *u, *seed) {
			fmt.Fprintln(w, uint64(x))
		}
	case "seq":
		for _, x := range gen.Sequential(*n) {
			fmt.Fprintln(w, uint64(x))
		}
	case "normal":
		for _, v := range gen.NormalValues(*n, *seed) {
			fmt.Fprintln(w, v)
		}
	case "lognormal":
		for _, v := range gen.LogNormalValues(*n, 0, 1, *seed) {
			fmt.Fprintln(w, v)
		}
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	// A failed write (a full disk) is only reported by the flush or
	// the close.
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func readItems(path string) ([]core.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []core.Item
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, core.Item(v))
	}
	return out, sc.Err()
}

func readValues(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

type binaryCodec interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

func writeSummary(path string, s binaryCodec) error {
	data, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSummary(path string, s binaryCodec) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.UnmarshalBinary(data)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	typ := fs.String("type", "mg", "mg|ss|gk|quantile")
	k := fs.Int("k", 64, "counters (mg/ss)")
	eps := fs.Float64("eps", 0.01, "error parameter (gk/quantile)")
	seed := fs.Uint64("seed", 1, "seed (quantile)")
	in := fs.String("in", "", "input stream file")
	out := fs.String("out", "", "output summary file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	switch *typ {
	case "mg", "ss":
		items, err := readItems(*in)
		if err != nil {
			return err
		}
		if *typ == "mg" {
			s := mg.New(*k)
			s.UpdateBatch(items)
			return writeSummary(*out, s)
		}
		s := spacesaving.New(*k)
		s.UpdateBatch(items)
		return writeSummary(*out, s)
	case "gk", "quantile":
		vals, err := readValues(*in)
		if err != nil {
			return err
		}
		if *typ == "gk" {
			s := gk.New(*eps)
			s.UpdateBatch(vals)
			return writeSummary(*out, s)
		}
		s := randquant.NewEpsilon(*eps, *seed)
		s.UpdateBatch(vals)
		return writeSummary(*out, s)
	default:
		return fmt.Errorf("build: unknown type %q", *typ)
	}
}

// readFrame reads a summary file and resolves its family from the
// frame's own kind tag; typ, when given, must name that family.
func readFrame(path, typ string) (*registry.Entry, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	ent, err := registry.FromFrame(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if typ != "" && typ != ent.Name() {
		return nil, nil, fmt.Errorf("%s holds kind %q, not %q", path, ent.Name(), typ)
	}
	return ent, data, nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	typ := fs.String("type", "", "summary kind the files must hold (default: the first file's)")
	out := fs.String("out", "", "output summary file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if *out == "" || len(files) == 0 {
		return fmt.Errorf("merge: -out and at least one input file are required")
	}
	kind := *typ // "" until the first file fixes it
	var ent *registry.Entry
	var acc any
	for _, path := range files {
		next, data, err := readFrame(path, kind)
		if err != nil {
			return err
		}
		src, err := next.Decode(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if acc == nil {
			ent, acc, kind = next, src, next.Name()
		} else if err := ent.Merge(acc, src); err != nil {
			return fmt.Errorf("merging %s: %w", path, err)
		}
	}
	data, err := ent.Encode(acc)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func parsePhis(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if !(v >= 0 && v <= 1) { // NaN too
			return nil, fmt.Errorf("phi %v is not in [0, 1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	typ := fs.String("type", "mg", "mg|ss|gk|quantile")
	top := fs.Int("top", 10, "report the top-T candidates (mg/ss)")
	threshold := fs.Float64("threshold", 0, "report items above this fraction of n (mg/ss; overrides -top)")
	phis := fs.String("phi", "0.5,0.9,0.99", "comma-separated quantiles (gk/quantile)")
	in := fs.String("in", "", "summary file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("query: -in is required")
	}
	switch *typ {
	case "mg":
		s := new(mg.Summary)
		if err := readSummary(*in, s); err != nil {
			return err
		}
		return printCounters(s.N(), counterQuery{
			top:       s.Counters(),
			threshold: func(t uint64) []core.Counter { return s.HeavyHitters(t) },
			estimate:  s.Estimate,
		}, *top, *threshold)
	case "ss":
		s := new(spacesaving.Summary)
		if err := readSummary(*in, s); err != nil {
			return err
		}
		return printCounters(s.N(), counterQuery{
			top:       s.Counters(),
			threshold: func(t uint64) []core.Counter { return s.HeavyHitters(t) },
			estimate:  s.Estimate,
		}, *top, *threshold)
	case "gk", "quantile":
		phiList, err := parsePhis(*phis)
		if err != nil {
			return err
		}
		var s interface {
			binaryCodec
			N() uint64
			Quantile(phi float64) float64
		} = new(gk.Summary)
		if *typ == "quantile" {
			s = new(randquant.Summary)
		}
		if err := readSummary(*in, s); err != nil {
			return err
		}
		fmt.Printf("n=%d\n", s.N())
		for _, phi := range phiList {
			fmt.Printf("  phi=%-6g %v\n", phi, s.Quantile(phi))
		}
		return nil
	default:
		return fmt.Errorf("query: unknown type %q", *typ)
	}
}

type counterQuery struct {
	top       []core.Counter
	threshold func(uint64) []core.Counter
	estimate  func(core.Item) core.Estimate
}

func printCounters(n uint64, q counterQuery, top int, thresholdFrac float64) error {
	fmt.Printf("n=%d\n", n)
	var report []core.Counter
	if thresholdFrac > 0 {
		t := uint64(thresholdFrac * float64(n))
		report = q.threshold(t)
		fmt.Printf("items with estimate reaching %d (%.4g of n):\n", t, thresholdFrac)
	} else {
		report = core.TopCounters(q.top, top)
		fmt.Printf("top %d candidates:\n", len(report))
	}
	for _, c := range report {
		fmt.Printf("  item %-12d %s\n", uint64(c.Item), q.estimate(c.Item))
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	typ := fs.String("type", "mg", "mg|ss|gk|quantile")
	in := fs.String("in", "", "summary file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	fi, err := os.Stat(*in)
	if err != nil {
		return err
	}
	switch *typ {
	case "mg":
		s := new(mg.Summary)
		if err := readSummary(*in, s); err != nil {
			return err
		}
		fmt.Printf("misra-gries: k=%d n=%d counters=%d errorBound=%d bytes=%d\n",
			s.K(), s.N(), s.Len(), s.ErrorBound(), fi.Size())
	case "ss":
		s := new(spacesaving.Summary)
		if err := readSummary(*in, s); err != nil {
			return err
		}
		fmt.Printf("spacesaving: k=%d n=%d counters=%d min=%d under=%d bytes=%d\n",
			s.K(), s.N(), s.Len(), s.MinCount(), s.UnderBound(), fi.Size())
	case "gk":
		s := new(gk.Summary)
		if err := readSummary(*in, s); err != nil {
			return err
		}
		fmt.Printf("gk: eps=%g n=%d tuples=%d bytes=%d\n", s.Epsilon(), s.N(), s.Size(), fi.Size())
	case "quantile":
		s := new(randquant.Summary)
		if err := readSummary(*in, s); err != nil {
			return err
		}
		fmt.Printf("quantile: blockSize=%d n=%d samples=%d levels=%d bytes=%d\n",
			s.BlockSize(), s.N(), s.Size(), s.Levels(), fi.Size())
	default:
		return fmt.Errorf("inspect: unknown type %q", *typ)
	}
	return nil
}

func cmdPush(args []string) error {
	fs := flag.NewFlagSet("push", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "summaryd address")
	slot := fs.String("slot", "", "slot name")
	typ := fs.String("type", "", "summary kind the file must hold (default: whatever it holds)")
	in := fs.String("in", "", "summary file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slot == "" || *in == "" {
		return fmt.Errorf("push: -slot and -in are required")
	}
	ent, data, err := readFrame(*in, *typ)
	if err != nil {
		return err
	}
	c, err := server.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	n, err := c.Push(*slot, ent.Name(), rawFrame(data))
	if err != nil {
		return err
	}
	fmt.Printf("pushed %s into %s, slot weight now %d\n", *in, *slot, n)
	return nil
}

func cmdPull(args []string) error {
	fs := flag.NewFlagSet("pull", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "summaryd address")
	slot := fs.String("slot", "", "slot name")
	out := fs.String("out", "", "output summary file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slot == "" || *out == "" {
		return fmt.Errorf("pull: -slot and -out are required")
	}
	c, err := server.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	kind, frame, err := c.PullFrame(*slot)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, frame, 0o644); err != nil {
		return err
	}
	fmt.Printf("pulled slot %s (kind %s, %d bytes) into %s\n", *slot, kind, len(frame), *out)
	return nil
}

// rawFrame carries frame bytes verbatim so the CLI can push any summary
// kind without decoding it.
type rawFrame []byte

func (r rawFrame) MarshalBinary() ([]byte, error) { return r, nil }
