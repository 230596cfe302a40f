package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mg"
	"repro/internal/randquant"
	"repro/internal/registry"
)

// End-to-end CLI workflow: gen → split → build → merge → query,
// exercising both the counter pipeline and the quantile pipeline.
func TestItemPipeline(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "stream.txt")
	if err := cmdGen([]string{"-kind", "zipf", "-n", "20000", "-u", "500", "-alpha", "1.3", "-seed", "3", "-out", stream}); err != nil {
		t.Fatal(err)
	}

	// Split the stream into 3 shards.
	data, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 20000 {
		t.Fatalf("generated %d lines", len(lines))
	}
	var shardFiles []string
	for i := 0; i < 3; i++ {
		lo, hi := i*len(lines)/3, (i+1)*len(lines)/3
		p := filepath.Join(dir, "shard"+string(rune('a'+i))+".txt")
		if err := os.WriteFile(p, []byte(strings.Join(lines[lo:hi], "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		shardFiles = append(shardFiles, p)
	}

	// Build one summary per shard, for both counter types.
	for _, typ := range []string{"mg", "ss"} {
		var sums []string
		for _, sf := range shardFiles {
			out := sf + "." + typ
			if err := cmdBuild([]string{"-type", typ, "-k", "32", "-in", sf, "-out", out}); err != nil {
				t.Fatalf("%s build: %v", typ, err)
			}
			sums = append(sums, out)
		}
		merged := filepath.Join(dir, "all."+typ)
		args := []string{"-type", typ, "-out", merged}
		if err := cmdMerge(append(args, sums...)); err != nil {
			t.Fatalf("%s merge: %v", typ, err)
		}
		if err := cmdQuery([]string{"-type", typ, "-in", merged, "-top", "5"}); err != nil {
			t.Fatalf("%s query: %v", typ, err)
		}
		if err := cmdInspect([]string{"-type", typ, "-in", merged}); err != nil {
			t.Fatalf("%s inspect: %v", typ, err)
		}
	}

	// The merged MG summary must carry the full weight.
	var s mg.Summary
	if err := readSummary(filepath.Join(dir, "all.mg"), &s); err != nil {
		t.Fatal(err)
	}
	if s.N() != 20000 {
		t.Fatalf("merged N = %d", s.N())
	}
	if s.Len() > 32 {
		t.Fatalf("merged size %d > k", s.Len())
	}
}

func TestValuePipeline(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "vals.txt")
	if err := cmdGen([]string{"-kind", "lognormal", "-n", "10000", "-seed", "5", "-out", stream}); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"gk", "quantile"} {
		sum := filepath.Join(dir, "s."+typ)
		if err := cmdBuild([]string{"-type", typ, "-eps", "0.02", "-in", stream, "-out", sum}); err != nil {
			t.Fatalf("%s build: %v", typ, err)
		}
		merged := filepath.Join(dir, "m."+typ)
		if err := cmdMerge([]string{"-type", typ, "-out", merged, sum, sum}); err != nil {
			t.Fatalf("%s merge: %v", typ, err)
		}
		if err := cmdQuery([]string{"-type", typ, "-in", merged, "-phi", "0.5,0.99"}); err != nil {
			t.Fatalf("%s query: %v", typ, err)
		}
		if err := cmdInspect([]string{"-type", typ, "-in", merged}); err != nil {
			t.Fatalf("%s inspect: %v", typ, err)
		}
	}
	// Self-merge doubles N.
	var q randquant.Summary
	if err := readSummary(filepath.Join(dir, "m.quantile"), &q); err != nil {
		t.Fatal(err)
	}
	if q.N() != 20000 {
		t.Fatalf("merged quantile N = %d", q.N())
	}
}

// writeExample writes a frame of any registered kind: the CLI cannot
// build most families, but merge and push must still carry them.
func writeExample(t *testing.T, path, kind string, n int) *registry.Entry {
	t.Helper()
	ent, ok := registry.ByName(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	data, err := ent.Encode(ent.Example(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ent
}

// merge takes the kind from the files' own frames, so it serves
// families build knows nothing about; -type is only a check.
func TestMergeAnyKind(t *testing.T) {
	dir := t.TempDir()
	a, b, cm := filepath.Join(dir, "a.hll"), filepath.Join(dir, "b.hll"), filepath.Join(dir, "c.countmin")
	ent := writeExample(t, a, "hll", 500)
	writeExample(t, b, "hll", 300)
	writeExample(t, cm, "countmin", 100)
	for _, extra := range [][]string{nil, {"-type", "hll"}} {
		out := filepath.Join(dir, "all.hll")
		if err := cmdMerge(append(extra, "-out", out, a, b)); err != nil {
			t.Fatalf("merge %v: %v", extra, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ent.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := ent.N(merged); got != 800 {
			t.Fatalf("merge %v: merged hll N = %d, want 800", extra, got)
		}
	}
	if err := cmdMerge([]string{"-type", "mg", "-out", filepath.Join(dir, "x"), a, b}); err == nil {
		t.Error("-type mg accepted hll files")
	}
	if err := cmdMerge([]string{"-out", filepath.Join(dir, "x"), a, cm}); err == nil {
		t.Error("merged an hll file with a countmin file")
	}
}

func TestGenKinds(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"zipf", "uniform", "seq", "normal", "lognormal"} {
		out := filepath.Join(dir, kind+".txt")
		if err := cmdGen([]string{"-kind", kind, "-n", "100", "-out", out}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(strings.Split(strings.TrimSpace(string(data)), "\n")); got != 100 {
			t.Fatalf("%s produced %d lines", kind, got)
		}
	}
	if err := cmdGen([]string{"-kind", "nope", "-out", filepath.Join(dir, "x")}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := cmdGen([]string{"-kind", "zipf"}); err == nil {
		t.Fatal("missing -out accepted")
	}
}

func TestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	if err := cmdBuild([]string{"-type", "nope", "-in", "x", "-out", "y"}); err == nil {
		t.Error("unknown build type accepted")
	}
	if err := cmdBuild([]string{"-type", "mg"}); err == nil {
		t.Error("missing files accepted")
	}
	if err := cmdMerge([]string{"-type", "mg", "-out", filepath.Join(dir, "o")}); err == nil {
		t.Error("merge without inputs accepted")
	}
	if err := cmdQuery([]string{"-type", "mg", "-in", filepath.Join(dir, "missing")}); err == nil {
		t.Error("query on missing file accepted")
	}
	// A phi outside [0, 1] is refused by name before the file is
	// opened (the summaries would clamp it to the minimum or maximum).
	for _, typ := range []string{"gk", "quantile"} {
		for _, phi := range []string{"1.5", "-1", "NaN"} {
			err := cmdQuery([]string{"-type", typ, "-phi", "0.5," + phi, "-in", filepath.Join(dir, "missing")})
			if err == nil || !strings.Contains(err.Error(), "phi "+phi+" ") {
				t.Errorf("%s -phi 0.5,%s: err = %v, want it to name phi %s", typ, phi, err, phi)
			}
		}
	}
	// Type confusion must be caught by the frame kind.
	stream := filepath.Join(dir, "s.txt")
	if err := cmdGen([]string{"-kind", "zipf", "-n", "100", "-out", stream}); err != nil {
		t.Fatal(err)
	}
	mgFile := filepath.Join(dir, "s.mg")
	if err := cmdBuild([]string{"-type", "mg", "-k", "8", "-in", stream, "-out", mgFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-type", "ss", "-in", mgFile}); err == nil {
		t.Error("ss query decoded an mg file")
	}
	// Corrupted file must be rejected.
	data, _ := os.ReadFile(mgFile)
	data[len(data)-3] ^= 0xff
	bad := filepath.Join(dir, "bad.mg")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-type", "mg", "-in", bad}); err == nil {
		t.Error("corrupted summary accepted")
	}
}

func TestParsePhis(t *testing.T) {
	got, err := parsePhis("0.5, 0.9,0.99")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.5 || got[2] != 0.99 {
		t.Fatalf("parsePhis = %v", got)
	}
	if _, err := parsePhis("0.5,x"); err == nil {
		t.Fatal("bad phi accepted")
	}
	for _, bad := range []string{"1.5", "-1", "NaN", "0.5,1.0001"} {
		if _, err := parsePhis(bad); err == nil {
			t.Errorf("phi %s outside [0, 1] accepted", bad)
		}
	}
}

// TestGenReportsFailedWrite: a stream that cannot be written is an
// error, not a silently short file.
func TestGenReportsFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := cmdGen([]string{"-n", "100000", "-out", "/dev/full"}); err == nil {
		t.Fatal("gen to a full device reported success")
	}
}
