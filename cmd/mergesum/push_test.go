package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mg"
	"repro/internal/registry"
	"repro/internal/server"
)

// End-to-end: build summaries with the CLI, push them to a live
// summaryd, pull the merged slot back, and verify it decodes.
func TestPushPullAgainstDaemon(t *testing.T) {
	srv := server.New()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	dir := t.TempDir()
	stream := filepath.Join(dir, "s.txt")
	if err := cmdGen([]string{"-kind", "zipf", "-n", "5000", "-u", "200", "-out", stream}); err != nil {
		t.Fatal(err)
	}
	sum1 := filepath.Join(dir, "s1.mg")
	sum2 := filepath.Join(dir, "s2.mg")
	if err := cmdBuild([]string{"-type", "mg", "-k", "16", "-in", stream, "-out", sum1}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-type", "mg", "-k", "16", "-in", stream, "-out", sum2}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{sum1, sum2} {
		if err := cmdPush([]string{"-addr", addr, "-slot", "flows", "-type", "mg", "-in", f}); err != nil {
			t.Fatalf("push %s: %v", f, err)
		}
	}
	out := filepath.Join(dir, "merged.mg")
	if err := cmdPull([]string{"-addr", addr, "-slot", "flows", "-out", out}); err != nil {
		t.Fatal(err)
	}
	var merged mg.Summary
	if err := readSummary(out, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.N() != 10000 {
		t.Fatalf("merged N = %d, want 10000", merged.N())
	}
	// The pulled file is queryable through the normal path too.
	if err := cmdQuery([]string{"-type", "mg", "-in", out, "-top", "3"}); err != nil {
		t.Fatal(err)
	}

	// push sends whatever kind the file holds: a family the CLI cannot
	// build goes through without -type, and a -type that disagrees with
	// the frame is refused before anything is sent.
	kmvFile := filepath.Join(dir, "s.kmv")
	ent := writeExample(t, kmvFile, "kmv", 700)
	for i := 0; i < 2; i++ {
		if err := cmdPush([]string{"-addr", addr, "-slot", "distinct", "-in", kmvFile}); err != nil {
			t.Fatalf("push kmv: %v", err)
		}
	}
	if err := cmdPush([]string{"-addr", addr, "-slot", "distinct", "-type", "mg", "-in", kmvFile}); err == nil {
		t.Fatal("-type mg accepted a kmv file")
	}
	out = filepath.Join(dir, "merged.kmv")
	if err := cmdPull([]string{"-addr", addr, "-slot", "distinct", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	pulled, err := ent.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := ent.N(pulled); got != 1400 {
		t.Fatalf("pulled kmv N = %d, want 1400", got)
	}

	// The CLI folds as the daemon does: for every registered kind,
	// merging three files byte-equals pushing them into one slot and
	// pulling it back.
	for _, ent := range registry.Entries() {
		kind := ent.Name()
		var files []string
		for i, n := range []int{3000, 2000, 1000} {
			f := filepath.Join(dir, fmt.Sprintf("fold%d.%s", i, kind))
			writeExample(t, f, kind, n)
			files = append(files, f)
			if err := cmdPush([]string{"-addr", addr, "-slot", "fold-" + kind, "-in", f}); err != nil {
				t.Fatalf("push %s: %v", f, err)
			}
		}
		merged := filepath.Join(dir, "merged."+kind)
		if err := cmdMerge(append([]string{"-out", merged}, files...)); err != nil {
			t.Fatalf("merge %s: %v", kind, err)
		}
		pulled := filepath.Join(dir, "pulled."+kind)
		if err := cmdPull([]string{"-addr", addr, "-slot", "fold-" + kind, "-out", pulled}); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(merged)
		b, errB := os.ReadFile(pulled)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: mergesum merge (%d bytes) differs from the daemon's PUSH…PULL fold (%d bytes)", kind, len(a), len(b))
		}
	}
}

func TestPushErrors(t *testing.T) {
	if err := cmdPush([]string{"-slot", "", "-in", ""}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := cmdPush([]string{"-slot", "x", "-in", "y", "-type", "nope"}); err == nil {
		t.Error("unknown type accepted")
	}
	if err := cmdPull([]string{"-slot", "", "-out", ""}); err == nil {
		t.Error("missing flags accepted")
	}
	// Unreachable server.
	if err := cmdPull([]string{"-addr", "127.0.0.1:1", "-slot", "x", "-out", "/tmp/x"}); err == nil {
		t.Error("unreachable server accepted")
	}
}
