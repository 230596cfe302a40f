// Package analysis is a self-contained static-analysis framework for
// this repository: a deliberately small reimplementation of the
// golang.org/x/tools/go/analysis API surface (Analyzer, Pass,
// Diagnostic) on top of the standard library only, so the sketchlint
// suite builds offline with no external dependencies.
//
// It hosts the two passes that catch bugs no test, -race run or
// sanitize assertion catches (DESIGN.md §7 records the mutation audit
// that kept them): lockflow keeps critical sections free of decode,
// I/O and blocking, and mergecompat keeps every caller of a Merge from
// dropping its error — a silently failed merge leaves the aggregate
// claiming a guarantee it does not have.
//
// Analyzers receive a fully parsed and type-checked package (see
// Loader) and report Diagnostics; cmd/sketchlint is the multichecker
// driver, and package analysistest runs analyzers over fixture
// packages with // want "regexp" expectations, mirroring the upstream
// analysistest convention.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static-analysis pass: a name, a doc string,
// and the Run function applied to each package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank
	// line, then details.
	Doc string

	// Run applies the analyzer to a package. It reports findings via
	// pass.Reportf and returns an error only for internal failures
	// (a broken analyzer, not a finding).
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File

	// Pkg and TypesInfo hold the type-checked package. TypesInfo maps
	// are always non-nil; entries may be missing for code that failed
	// to type-check (the loader tolerates partial packages).
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies one analyzer to one loaded package and returns its
// findings in file/position order.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	ds := pass.diagnostics
	sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	return ds, nil
}
