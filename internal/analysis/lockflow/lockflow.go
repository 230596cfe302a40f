// Package lockflow defines an Analyzer that checks what happens while
// a lock is held: it proves the critical sections stay cheap.
//
// The merge plane's slot locks and the roll-up planes' locks sit on
// every hot path: one decode, one blocking write or one channel wait
// inside a critical section serializes the whole plane. The pass
// interprets each function with the flow engine, carrying the may-
// held lock set (sl.mu, p.mu, ...) through branches and defers, and
// reports operations reachable while any lock is held:
//
//   - decoding (Decode, DecodeInto, UnmarshalBinary, DecodeFrame,
//     ReadFrame) — allocation-heavy by construction,
//   - I/O (fmt.Fprint*, io/os/net/bufio calls) — may block on a peer,
//   - channel operations (send, receive, select, time.Sleep) — may
//     block indefinitely,
//   - pool Gets — a miss allocates under the lock.
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

// run checks every function but those carrying flow.LockflowOK; that
// annotation also clears, at its call sites, locked callers of what the
// function does (flow's summary table stops the taint there).
func run(pass *analysis.Pass) error {
	in := flow.Of(pass)
	for _, fd := range in.Funcs {
		if flow.HasAnnotation(fd, flow.LockflowOK) {
			continue
		}
		c := &checker{in: in, pass: pass, reported: map[token.Pos]bool{}}
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
	reported map[token.Pos]bool
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

func (c *checker) Transfer(st any, n ast.Node) any {
	s := st.(lockSet)
	switch x := n.(type) {
	case flow.DeferredCall:
		c.lockOp(s, x.Call)
		return s
	case flow.RangeBind:
		if tv, ok := c.in.TypesInfo.Types[x.R.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.reportHeld(s, x.R.Pos(), "channel receive", "")
			}
		}
		return s
	case *ast.SendStmt:
		c.reportHeld(s, x.Pos(), "channel send", "")
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
					c.reportHeld(s, x.Pos(), "channel receive", "")
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
	class, detail := c.classify(call)
	if class == "" {
		return
	}
	c.reportHeld(s, call.Pos(), class, detail)
}

// reportHeld reports an operation if any lock may be held.
func (c *checker) reportHeld(s lockSet, pos token.Pos, class, detail string) {
	if len(s) == 0 || c.reported[pos] {
		return
	}
	c.reported[pos] = true
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
	c.pass.Reportf(pos, "%s%s while holding %s", class, detail, held)
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
	switch _, recv := flow.RecvType(fn); recv {
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

// classify buckets one call into a banned-under-lock class: what the
// call does itself, or what a same-package callee does (summary table).
func (c *checker) classify(call *ast.CallExpr) (class, detail string) {
	if class, detail := c.in.Op(call); class != "" {
		return class, detail
	}
	if callee, cs := c.in.FuncOf(call); cs != nil && cs.Blocking != "" && !flow.HasAnnotation(c.in.Funcs[callee], flow.LockflowOK) {
		return cs.Blocking, "(via " + cs.Via(callee) + ")"
	}
	return "", ""
}
