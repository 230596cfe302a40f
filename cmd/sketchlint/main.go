// Command sketchlint is the repository's static-analysis multichecker:
// it runs the two custom passes that catch bugs no test, -race run or
// sanitize assertion catches — lockflow (no decode, I/O or blocking
// under a lock) and mergecompat (no dropped merge error) — over every
// package of the module and exits nonzero on any diagnostic. It is the
// fast inner loop of `make lint` and part of `make check`.
//
// Usage:
//
//	sketchlint [dir ...]
//
// With no arguments the whole module is checked (the "./..." of the
// suite); testdata and result trees are skipped. Packages are loaded
// as a plain build sees them: the sanitize invariant layer is untagged
// code behind one constant (core.Sanitize), so it is linted too. Each
// package is parsed and type-checked once (the loader caches by
// directory) and both passes run over that one load.
//
// Exit codes: 0 clean, 1 diagnostics, 2 load or internal error.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/lockflow"
	"repro/internal/analysis/mergecompat"
)

var analyzers = []*analysis.Analyzer{mergecompat.Analyzer, lockflow.Analyzer}

var errDiagnostics = errors.New("diagnostics reported")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if err == errDiagnostics {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "sketchlint:", err)
		os.Exit(2)
	}
}

// run lints dirs (the whole module when there are none), writes one
// line per diagnostic to w, and returns errDiagnostics if there was any.
func run(w io.Writer, dirs []string) error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		if dirs, err = loader.ModulePackageDirs(); err != nil {
			return err
		}
	}
	sort.Strings(dirs)

	failing := false
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			return err
		}
		for _, terr := range pkg.TypeErrors {
			return fmt.Errorf("%s does not type-check: %v", pkg.Path, terr)
		}
		for _, a := range analyzers {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				return err
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				rel, rerr := filepath.Rel(loader.ModuleRoot(), pos.Filename)
				if rerr != nil {
					rel = pos.Filename
				}
				if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", rel, pos.Line, pos.Column, d.Analyzer, d.Message); err != nil {
					return err
				}
				failing = true
			}
		}
	}
	if failing {
		return errDiagnostics
	}
	return nil
}
