package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package as the analyzers see it.
type Package struct {
	// Path is the module-qualified import path ("repro/internal/mg").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems. The loader returns
	// partial packages so analyzers can still run AST-level checks;
	// drivers decide whether type errors are fatal.
	TypeErrors []error
}

// Loader parses and type-checks packages of the enclosing module
// without any dependency on golang.org/x/tools: module-local imports
// are resolved from the module tree on disk, standard-library imports
// through the stdlib source importer (works offline), and results are
// cached per directory.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	ctx        build.Context
	std        types.Importer
	cache      map[string]*Package
	loading    map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir.
// Files are selected as under a plain `go build`.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: path,
		ctx:        build.Default,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// ModuleRoot returns the absolute path of the module root directory.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// findModule walks up from dir to the nearest go.mod and reports the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// Load parses and type-checks the package in dir (absolute or
// relative to the current directory).
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	bp, err := l.ctx.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	pkg := &Package{
		Path: l.pathFor(abs),
		Fset: l.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the package even on errors; TypeErrors records them.
	pkg.Types, _ = conf.Check(pkg.Path, l.fset, files, pkg.Info)
	pkg.Files = files
	l.cache[abs] = pkg
	return pkg, nil
}

// pathFor maps a directory to its module-qualified import path.
func (l *Loader) pathFor(abs string) string {
	if rel, err := filepath.Rel(l.moduleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modulePath
		}
		return l.modulePath + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// loaderImporter adapts the Loader to types.Importer: module-local
// import paths load recursively from disk, everything else is assumed
// to be standard library and handled by the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.Load(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// ModulePackageDirs walks the module tree and returns every directory
// holding a buildable non-test package, skipping testdata, hidden
// directories, and vendored or generated result trees. This is the
// `./...` of the sketchlint driver.
func (l *Loader) ModulePackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor" || name == "results") {
			return filepath.SkipDir
		}
		if bp, err := l.ctx.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
