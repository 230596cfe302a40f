// Package flow is the dataflow layer under the lockflow analyzer. It
// stays stdlib-only, like the analysis framework it extends, and
// provides two things:
//
//   - a structured abstract interpreter (Interp) that walks a
//     function body in execution order — forking at branches, joining
//     at merge points, running loop bodies to a two-pass fixpoint,
//     and applying deferred calls at every exit — so the analyzer sees
//     per-path abstract states instead of raw syntax;
//
//   - per-function summaries (Summary) giving one-level
//     interprocedural facts: does a function perform a blocking or
//     allocation-heavy operation (decode, I/O, channel, sleep, pool
//     Get), directly or through a same-package helper. The summaries
//     are computed once per package with a bounded worklist fixpoint,
//     so in-package helper chains are folded into the fact a locked
//     caller consults.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"repro/internal/analysis"
)

// Info is the flow IR of one type-checked package: the function table
// and the summary table. Build it with Of.
type Info struct {
	TypesInfo *types.Info

	// Funcs maps each declared function or method object to its
	// declaration. Function literals are not entered here; the
	// interpreter treats them as opaque values.
	Funcs map[*types.Func]*ast.FuncDecl

	// summaries holds the per-function interprocedural facts, keyed
	// like Funcs.
	summaries map[*types.Func]*Summary
}

// Summary is one function's interprocedural fact row.
type Summary struct {
	// Blocking classifies the heaviest lock-hostile operation the
	// function performs, directly or through a same-package callee:
	// "" (none), "pool Get", "sleep", "channel operation", "I/O" or
	// "decode".
	Blocking string
	// BlockingVia names the callee chain for diagnostics ("" when the
	// operation is in the function itself).
	BlockingVia string
}

// blockingRank orders classes so the fixpoint keeps the most severe.
var blockingRank = map[string]int{"": 0, "pool Get": 1, "sleep": 2, "channel operation": 3, "I/O": 4, "decode": 5}

// LockflowOK is the opt-out annotation: "what this function does is
// meant to run under its callers' locks". Its Blocking fact stops there
// instead of tainting those callers — otherwise the one argued exception
// would have to be repeated up every call chain.
const LockflowOK = "//sketch:lockflow-ok"

// cache holds one Info per type-checked package; analysistest may run
// in parallel subtests, so access is locked.
var (
	cacheMu sync.Mutex
	cache   = map[*types.Package]*Info{}
)

// Of returns the (cached) flow IR for the pass's package.
func Of(pass *analysis.Pass) *Info {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if in, ok := cache[pass.Pkg]; ok {
		return in
	}
	in := &Info{
		TypesInfo: pass.TypesInfo,
		Funcs:     map[*types.Func]*ast.FuncDecl{},
		summaries: map[*types.Func]*Summary{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				in.Funcs[obj] = fd
			}
		}
	}
	in.buildSummaries()
	cache[pass.Pkg] = in
	return in
}

// Callee resolves the statically-known callee of a call expression:
// a package-level function, a method (including generic instances),
// or nil for builtins, function values, conversions and dynamic
// dispatch through func-typed fields.
func (in *Info) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := in.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// CalleeName returns the bare name of the called function or method:
// the syntactic name used by class checks that must also work across
// packages ("Decode", "GetScratch", "Lock").
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// FuncOf returns the *types.Func a call resolves to only when it is
// declared in this package, together with its summary. One-level
// interprocedural lookups go through here.
func (in *Info) FuncOf(call *ast.CallExpr) (*types.Func, *Summary) {
	fn := in.Callee(call)
	if fn == nil {
		return nil, nil
	}
	// Generic methods resolve to the instantiated object; summaries
	// are keyed by the declared origin.
	fn = fn.Origin()
	return fn, in.summaries[fn]
}

// HasAnnotation reports whether the function's doc comment carries
// the given machine annotation ("//sketch:...") on a line of its own.
func HasAnnotation(fd *ast.FuncDecl, ann string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == ann {
			return true
		}
	}
	return false
}

// RecvType returns the import path and bare name of the method's
// receiver named type ("" when unresolvable).
func RecvType(fn *types.Func) (pkg, name string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil {
		return "", ""
	}
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	return pkg, named.Obj().Name()
}

// IsDirectPoolGet reports whether the call is a direct pool
// acquisition: codec.GetBuffer, any GetScratch method, or
// sync.Pool.Get.
func (in *Info) IsDirectPoolGet(call *ast.CallExpr) bool {
	switch CalleeName(call) {
	case "GetScratch":
		return true
	case "GetBuffer":
		fn := in.Callee(call)
		return fn != nil && fn.Pkg() != nil && (fn.Pkg().Path() == "codec" || strings.HasSuffix(fn.Pkg().Path(), "/codec"))
	case "Get":
		fn := in.Callee(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return false
		}
		_, recv := RecvType(fn)
		return recv == "Pool"
	}
	return false
}

// Op classifies one call by what it does itself (not through a
// summary): a blocking class and a detail for diagnostics, or "" when
// the call is none of decode, I/O, sleep or pool Get.
func (in *Info) Op(call *ast.CallExpr) (class, detail string) {
	name := CalleeName(call)
	switch name {
	case "Decode", "DecodeInto", "UnmarshalBinary", "DecodeFrame", "ReadFrame":
		return "decode", "(" + name + ")"
	}
	if in.IsDirectPoolGet(call) {
		return "pool Get", "(a miss allocates)"
	}
	fn := in.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	pkg := fn.Pkg().Path()
	recvPkg, _ := RecvType(fn)
	switch {
	case pkg == "fmt" && strings.HasPrefix(name, "Fprint"):
		return "I/O", "(fmt." + name + ")"
	case isIOPkg(pkg):
		return "I/O", fmt.Sprintf("(%s.%s)", pkg, name)
	case isIOPkg(recvPkg):
		return "I/O", fmt.Sprintf("(%s.%s)", recvPkg, name)
	case pkg == "time" && name == "Sleep":
		return "sleep", ""
	}
	return "", ""
}

// isIOPkg reports packages whose calls can reach a syscall or block
// on a peer.
func isIOPkg(path string) bool {
	switch path {
	case "io", "os", "net", "bufio", "io/ioutil":
		return true
	}
	return strings.HasPrefix(path, "net/")
}

// buildSummaries computes the package's summary table: local facts
// first, then a bounded fixpoint folding same-package callee facts
// into callers.
func (in *Info) buildSummaries() {
	for fn, fd := range in.Funcs {
		in.summaries[fn] = in.localSummary(fd)
	}
	// Propagate through same-package calls until stable. The call
	// graph is small (one package); 10 rounds bounds pathological
	// cycles.
	for round := 0; round < 10; round++ {
		changed := false
		for fn, fd := range in.Funcs {
			if in.propagate(in.summaries[fn], fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// localSummary extracts the fact visible in one function body alone.
func (in *Info) localSummary(fd *ast.FuncDecl) *Summary {
	s := &Summary{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			class, _ := in.Op(x)
			s.note(class, "")
		case *ast.SendStmt, *ast.SelectStmt:
			s.note("channel operation", "")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.note("channel operation", "")
			}
		case *ast.RangeStmt:
			if tv, ok := in.TypesInfo.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.note("channel operation", "")
				}
			}
		}
		return true
	})
	return s
}

// note records a blocking fact, keeping the most severe class; reports
// whether it changed the summary.
func (s *Summary) note(class, via string) bool {
	if blockingRank[class] <= blockingRank[s.Blocking] {
		return false
	}
	s.Blocking, s.BlockingVia = class, via
	return true
}

// propagate folds direct same-package callees' facts into s; reports
// whether anything changed.
func (in *Info) propagate(s *Summary, fd *ast.FuncDecl) bool {
	changed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, cs := in.FuncOf(call)
		if cs == nil || cs == s || cs.Blocking == "" || HasAnnotation(in.Funcs[callee], LockflowOK) {
			return true
		}
		if s.note(cs.Blocking, cs.Via(callee)) {
			changed = true
		}
		return true
	})
	return changed
}

// Via names the call chain from a call of callee, whose summary cs is,
// down to its blocking operation ("helper → decodeAll").
func (cs *Summary) Via(callee *types.Func) string {
	if cs.BlockingVia == "" {
		return callee.Name()
	}
	return callee.Name() + " → " + cs.BlockingVia
}
