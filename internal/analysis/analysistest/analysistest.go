// Package analysistest runs analyzers over fixture packages and
// checks their diagnostics against // want "regexp" comments, the
// same convention as golang.org/x/tools/go/analysis/analysistest but
// reimplemented on the local framework so the suite builds offline.
//
// A fixture line expects diagnostics with trailing comments:
//
//	s.Merge(o) // want `dropped error`
//	bad()      // want "first" "second"
//
// Every diagnostic must match one expectation on its line and every
// expectation must be consumed, otherwise the test fails.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one // want pattern awaiting a diagnostic.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	used bool
}

// Run loads the fixture package in dir (relative to the test's
// working directory), applies the analyzer, and enforces the // want
// expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", dir, terr)
	}
	diags, err := analysis.Run(a, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	expects := collectWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.rx)
		}
	}
}

// claim marks the first unused expectation on (file, line) whose
// regexp matches msg.
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.used && e.file == file && e.line == line && e.rx.MatchString(msg) {
			e.used = true
			return true
		}
	}
	return false
}

// collectWants extracts // want expectations from every comment in
// the fixture package.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(text) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return out
}

// splitPatterns parses a want payload: a sequence of double-quoted or
// backquoted regexp literals.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return append(out, s) // unterminated; surfaces as a bad pattern
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, unq)
			} else {
				out = append(out, s[1:end])
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return append(out, s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[2+end:])
		default:
			return append(out, s)
		}
	}
	return out
}
