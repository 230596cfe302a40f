package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestModuleIsClean runs both passes over the real module, exactly as
// `make lint` does. A new decode, I/O or blocking call under a lock, or
// a dropped merge error, fails `go test ./...`, not just CI's lint step.
func TestModuleIsClean(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatalf("sketchlint over the module reported diagnostics:\n%s", out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run produced output:\n%s", out.String())
	}
}

// TestAnyDiagnosticFails: a package with findings fails the run, and
// every finding is printed as file:line:col: analyzer: message.
func TestAnyDiagnosticFails(t *testing.T) {
	var out bytes.Buffer
	for _, dir := range []string{"../../internal/analysis/testdata/src/lockflow_a", "../../internal/analysis/testdata/src/mergecompat_a"} {
		out.Reset()
		if err := run(&out, []string{dir}); err != errDiagnostics {
			t.Fatalf("%s: got %v, want errDiagnostics", dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if f := strings.SplitN(line, ": ", 3); len(f) != 3 || !strings.Contains(f[0], "testdata/src/") || (f[1] != "lockflow" && f[1] != "mergecompat") {
				t.Fatalf("%s: malformed diagnostic line %q", dir, line)
			}
		}
	}
}
