// Package lockflow defines an Analyzer that checks what happens while
// a lock is held. locksafe proves guarded fields are accessed under
// their mutex; lockflow proves the critical sections stay cheap.
//
// The merge plane's slot locks and the ingest front's lane locks sit
// on every hot path: one decode, one blocking write or one channel
// wait inside a critical section serializes the whole plane. The pass
// interprets each function with the flow engine, carrying the may-
// held lock set (sl.mu, ln.mu, ...) through branches and defers, and
// reports operations reachable while any lock is held:
//
//   - decoding (Decode, DecodeInto, UnmarshalBinary, DecodeFrame,
//     ReadFrame) — allocation-heavy by construction,
//   - I/O (fmt.Fprint*, io/os/net/bufio calls) — may block on a peer,
//   - channel operations (send, receive, select, time.Sleep) — may
//     block indefinitely,
//   - pool Gets (warning severity) — a miss allocates under the lock.
//
// Same-package callees are classified through the summary table, so a
// helper that decodes taints its callers one level up (transitively
// folded within the package). Encode is deliberately not banned: the
// snapshot cache encodes under the slot lock by design, and encoding
// writes to a pooled in-memory buffer. A function may opt out with a
// `//sketch:lockflow-ok` doc-comment line: its body is not checked, and
// callers that hold a lock across a call to it are not tainted by what
// it does (the taint stops at the annotation; the callers' own bodies
// stay checked).
package lockflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the lockflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockflow",
	Doc: `check that critical sections stay cheap (no decode, I/O or blocking under a lock)

Carries a may-held lock set through each function and reports decode,
I/O, channel and pool-get operations reachable while a mutex is held,
including through same-package helpers. Opt out per function with
//sketch:lockflow-ok, which also clears the function for locked callers.`,
	Run: run,
}

// optOut exempts a function's body and, at its call sites, clears
// locked callers of what it does (flow's summary table stops the
// taint at the same annotation).
const optOut = "//sketch:lockflow-ok"

func run(pass *analysis.Pass) error {
	in := flow.Of(pass)
	for _, fd := range in.Funcs {
		if flow.HasAnnotation(fd, optOut) {
			continue
		}
		c := &checker{in: in, pass: pass, reported: map[string]bool{}}
		ip := &flow.Interp{Client: c}
		ip.Run(fd, lockSet{})
	}
	return nil
}

// lockSet is the may-held abstract state: the canonical spelling of
// each lock expression ("sl.mu") mapped to its acquisition position.
type lockSet map[string]token.Pos

type checker struct {
	in       *flow.Info
	pass     *analysis.Pass
	reported map[string]bool
}

func (c *checker) report(pos token.Pos, sev analysis.Severity, format string, args ...any) {
	k := fmt.Sprintf("%d", pos)
	if c.reported[k] {
		return
	}
	c.reported[k] = true
	if sev == analysis.SeverityWarning {
		c.pass.Warnf(pos, format, args...)
	} else {
		c.pass.Reportf(pos, format, args...)
	}
}

func (c *checker) Copy(st any) any {
	s := st.(lockSet)
	n := lockSet{}
	for k, v := range s {
		n[k] = v
	}
	return n
}

// Join keeps the union: a lock held on either incoming path may be
// held after the merge.
func (c *checker) Join(a, b any) any {
	sa, sb := a.(lockSet), b.(lockSet)
	for k, v := range sb {
		if _, ok := sa[k]; !ok {
			sa[k] = v
		}
	}
	return sa
}

func (c *checker) Refine(st any, cond ast.Expr, taken bool) any { return st }

func (c *checker) AtExit(st any, ret *ast.ReturnStmt) {}

func (c *checker) Transfer(st any, n ast.Node) any {
	s := st.(lockSet)
	switch x := n.(type) {
	case flow.DeferredCall:
		c.lockOp(s, x.Call)
		return s
	case flow.RangeBind:
		if tv, ok := c.in.TypesInfo.Types[x.R.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.reportHeld(s, x.R.Pos(), "channel receive", analysis.SeverityError, "")
			}
		}
		return s
	case *ast.SendStmt:
		c.reportHeld(s, x.Pos(), "channel send", analysis.SeverityError, "")
		return s
	case *ast.GoStmt:
		// The spawned goroutine runs outside this critical section;
		// starting it is cheap.
		return s
	}
	// Everything else: walk for lock transitions, receives and calls,
	// without descending into function literals (their bodies run
	// elsewhere).
	if e, ok := n.(ast.Node); ok {
		ast.Inspect(e, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					c.reportHeld(s, x.Pos(), "channel receive", analysis.SeverityError, "")
				}
			case *ast.CallExpr:
				c.lockOp(s, x)
			}
			return true
		})
	}
	return s
}

// lockOp handles one call: a lock transition, or a classified
// operation checked against the held set.
func (c *checker) lockOp(s lockSet, call *ast.CallExpr) {
	if key, op, ok := c.mutexOp(call); ok {
		switch op {
		case "Lock", "RLock":
			if _, held := s[key]; !held {
				s[key] = call.Pos()
			}
		case "Unlock", "RUnlock":
			delete(s, key)
		}
		return
	}
	class, sev, detail := c.classify(call)
	if class == "" {
		return
	}
	c.reportHeld(s, call.Pos(), class, sev, detail)
}

// reportHeld reports an operation if any lock may be held.
func (c *checker) reportHeld(s lockSet, pos token.Pos, class string, sev analysis.Severity, detail string) {
	if len(s) == 0 {
		return
	}
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	held := keys[0]
	if len(keys) > 1 {
		held = fmt.Sprintf("%s (and %d more)", keys[0], len(keys)-1)
	}
	if detail != "" {
		detail = " " + detail
	}
	c.report(pos, sev, "%s%s while holding %s", class, detail, held)
}

// mutexOp recognizes sync.Mutex/RWMutex transitions and returns the
// canonical lock key (the receiver expression's spelling).
func (c *checker) mutexOp(call *ast.CallExpr) (key, op string, ok bool) {
	name := flow.CalleeName(call)
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn := c.in.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch flow.RecvTypeName(fn) {
	case "Mutex", "RWMutex":
	default:
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return types.ExprString(sel.X), name, true
}

// classify buckets one call into a banned-under-lock class.
func (c *checker) classify(call *ast.CallExpr) (class string, sev analysis.Severity, detail string) {
	name := flow.CalleeName(call)
	fn := c.in.Callee(call)
	pkg := ""
	if fn != nil && fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}

	switch name {
	case "Decode", "DecodeInto", "UnmarshalBinary", "DecodeFrame", "ReadFrame":
		return "decode", analysis.SeverityError, fmt.Sprintf("(%s)", name)
	}
	switch {
	case fn != nil && pkg == "fmt" && len(name) > 6 && name[:6] == "Fprint":
		return "I/O", analysis.SeverityError, fmt.Sprintf("(fmt.%s)", name)
	case fn != nil && isIOPkg(pkg):
		return "I/O", analysis.SeverityError, fmt.Sprintf("(%s.%s)", pkg, name)
	case fn != nil && isIOPkg(flow.RecvTypePkgPath(fn)):
		return "I/O", analysis.SeverityError, fmt.Sprintf("(%s.%s)", flow.RecvTypePkgPath(fn), name)
	case fn != nil && pkg == "time" && name == "Sleep":
		return "sleep", analysis.SeverityError, ""
	case c.in.IsDirectPoolGet(call):
		return "pool Get", analysis.SeverityWarning, "(a miss allocates)"
	}

	// Same-package callees through the summary table.
	if callee, cs := c.in.FuncOf(call); cs != nil && cs.Blocking != "" && !flow.HasAnnotation(c.in.Funcs[callee], optOut) {
		via := callee.Name()
		if cs.BlockingVia != "" {
			via += " → " + cs.BlockingVia
		}
		sev := analysis.SeverityError
		class := cs.Blocking
		if class == "pool-get" {
			class, sev = "pool Get", analysis.SeverityWarning
		}
		if class == "channel" {
			class = "channel operation"
		}
		return class, sev, fmt.Sprintf("(via %s)", via)
	}
	return "", 0, ""
}

// isIOPkg mirrors the summary table's I/O package classification.
func isIOPkg(path string) bool {
	switch path {
	case "io", "os", "net", "bufio", "io/ioutil":
		return true
	}
	return len(path) > 4 && path[:4] == "net/"
}
