package flow

import (
	"go/ast"
	"go/token"
)

// Client is the transfer-function side of the abstract interpreter.
// States are opaque to the engine; the engine only copies, joins and
// threads them along the structured control flow of a function body.
type Client interface {
	// Copy returns an independent copy of st (states are mutated in
	// place by Transfer).
	Copy(st any) any
	// Join merges b into a and returns the joined state. b is dead
	// after the call.
	Join(a, b any) any
	// Transfer applies one atomic step: a simple statement, a branch
	// condition, a synthetic RangeBind, or a DeferredCall replayed at
	// an exit. Nodes never contain nested statements, but may contain
	// function literals, which the engine does not descend into.
	Transfer(st any, n ast.Node) any
}

// RangeBind is the synthetic event the engine emits once per modeled
// iteration of a range loop, standing in for the key/value bind. The
// loop body itself is interpreted separately — analyzers must not
// descend into R.Body.
type RangeBind struct{ R *ast.RangeStmt }

func (r RangeBind) Pos() token.Pos { return r.R.Pos() }
func (r RangeBind) End() token.Pos { return r.R.X.End() }

// DeferredCall wraps a deferred call replayed at a function exit, in
// LIFO order.
type DeferredCall struct{ Call *ast.CallExpr }

func (d DeferredCall) Pos() token.Pos { return d.Call.Pos() }
func (d DeferredCall) End() token.Pos { return d.Call.End() }

// Interp drives a Client over one function body.
type Interp struct {
	Client Client
}

// path is one abstract execution path: a state, the defers collected
// along it, and whether it already exited.
type path struct {
	st     any
	defers []*ast.CallExpr
	dead   bool
}

// collector accumulates the states of paths that jump to one place
// (the break target of a loop, the continue point, the join after a
// switch).
type collector struct {
	st  any
	any bool
}

func (ip *Interp) join(a, b *path) {
	if b.dead {
		return
	}
	if a.dead {
		a.st, a.defers, a.dead = b.st, b.defers, false
		return
	}
	a.st = ip.Client.Join(a.st, b.st)
	// Defers differing across paths is rare (a conditional defer);
	// keep the union so unlocks are never lost at exits.
	for _, d := range b.defers {
		found := false
		for _, e := range a.defers {
			if e == d {
				found = true
				break
			}
		}
		if !found {
			a.defers = append(a.defers, d)
		}
	}
}

func (ip *Interp) collect(c *collector, p *path) {
	if p.dead {
		return
	}
	if !c.any {
		c.st, c.any = ip.Client.Copy(p.st), true
	} else {
		c.st = ip.Client.Join(c.st, ip.Client.Copy(p.st))
	}
}

func (ip *Interp) fork(p *path) *path {
	return &path{st: ip.Client.Copy(p.st), defers: append([]*ast.CallExpr(nil), p.defers...), dead: p.dead}
}

// loopCtx is the break/continue target stack entry.
type loopCtx struct {
	label    string
	brk      *collector
	cont     *collector // nil for switch/select entries (break only)
	isSwitch bool
}

// Run interprets the function body starting from init, replaying the
// deferred calls at every return statement and at the
// fall-off-the-end exit.
func (ip *Interp) Run(fd *ast.FuncDecl, init any) {
	p := &path{st: init}
	ip.execBlock(p, fd.Body, nil)
	ip.exit(p)
}

// exit replays the path's defers (LIFO) and ends the path.
func (ip *Interp) exit(p *path) {
	if p.dead {
		return
	}
	for i := len(p.defers) - 1; i >= 0; i-- {
		p.st = ip.Client.Transfer(p.st, DeferredCall{Call: p.defers[i]})
	}
	p.dead = true
}

func (ip *Interp) execBlock(p *path, b *ast.BlockStmt, stack []*loopCtx) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		if p.dead {
			return
		}
		ip.exec(p, s, stack, "")
	}
}

func (ip *Interp) exec(p *path, stmt ast.Stmt, stack []*loopCtx, label string) {
	if p.dead {
		return
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		ip.execBlock(p, s, stack)

	case *ast.ExprStmt:
		p.st = ip.Client.Transfer(p.st, s.X)
		if isNoReturnCall(s.X) {
			p.dead = true
		}

	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.SendStmt, *ast.GoStmt:
		p.st = ip.Client.Transfer(p.st, stmt)

	case *ast.ReturnStmt:
		p.st = ip.Client.Transfer(p.st, s)
		ip.exit(p)

	case *ast.DeferStmt:
		p.defers = append(p.defers, s.Call)

	case *ast.IfStmt:
		if s.Init != nil {
			ip.exec(p, s.Init, stack, "")
		}
		p.st = ip.Client.Transfer(p.st, s.Cond)
		els := ip.fork(p)
		ip.execBlock(p, s.Body, stack)
		if s.Else != nil {
			ip.exec(els, s.Else, stack, "")
		}
		ip.join(p, els)

	case *ast.ForStmt:
		if s.Init != nil {
			ip.exec(p, s.Init, stack, "")
		}
		ip.execLoop(p, stack, label, s.Cond, nil, s.Body, s.Post)

	case *ast.RangeStmt:
		p.st = ip.Client.Transfer(p.st, s.X)
		ip.execLoop(p, stack, label, nil, s, s.Body, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			ip.exec(p, s.Init, stack, "")
		}
		if s.Tag != nil {
			p.st = ip.Client.Transfer(p.st, s.Tag)
		}
		ip.execSwitch(p, s.Body, stack, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ip.exec(p, s.Init, stack, "")
		}
		p.st = ip.Client.Transfer(p.st, s.Assign)
		ip.execSwitch(p, s.Body, stack, label)

	case *ast.SelectStmt:
		ip.execSwitch(p, s.Body, stack, label)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if c := findCtx(stack, s.Label, true); c != nil {
				ip.collect(c.brk, p)
			}
			p.dead = true
		case token.CONTINUE:
			if c := findCtx(stack, s.Label, false); c != nil && c.cont != nil {
				ip.collect(c.cont, p)
			}
			p.dead = true
		case token.GOTO:
			// Rare in this tree; treat conservatively as leaving the
			// analyzable region.
			p.dead = true
		case token.FALLTHROUGH:
			// Handled by execSwitch; reaching here (outside a switch)
			// is malformed code.
		}

	case *ast.LabeledStmt:
		ip.exec(p, s.Stmt, stack, s.Label.Name)

	case *ast.EmptyStmt:
	default:
		// Unknown statement kinds pass through untransferred.
	}
}

// execLoop models a for/range loop: the body runs twice from the
// joined entry state (enough for facts one iteration apart, e.g. a
// lock taken in iteration n and still held in n+1), and the state after
// the loop joins every way out — the zero-iteration path, the
// condition turning false, and breaks.
func (ip *Interp) execLoop(p *path, stack []*loopCtx, label string, cond ast.Expr, rng *ast.RangeStmt, body *ast.BlockStmt, post ast.Stmt) {
	brk, cont := &collector{}, &collector{}
	ctx := &loopCtx{label: label, brk: brk, cont: cont}
	inner := append(stack, ctx)

	entry := ip.fork(p) // zero-iteration exit state (cond false / empty range)
	infinite := cond == nil && rng == nil

	cur := p
	for i := 0; i < 2; i++ {
		if cur.dead {
			break
		}
		if cond != nil {
			cur.st = ip.Client.Transfer(cur.st, cond)
		}
		if rng != nil {
			cur.st = ip.Client.Transfer(cur.st, RangeBind{R: rng})
		}
		ip.execBlock(cur, body, inner)
		if cont.any {
			other := &path{st: cont.st, defers: cur.defers}
			ip.join(cur, other)
			cont.st, cont.any = nil, false
		}
		if post != nil && !cur.dead {
			ip.exec(cur, post, stack, "")
		}
	}

	// After the loop: zero-iteration path ∪ post-iteration path
	// (unless the loop has no exit condition) ∪ breaks.
	after := entry
	if infinite {
		after = &path{dead: true, defers: entry.defers}
	} else if !cur.dead {
		ip.join(after, ip.fork(cur))
	}
	if brk.any {
		ip.join(after, &path{st: brk.st, defers: after.defers})
	}
	*p = *after
}

// execSwitch models switch/type-switch/select bodies: each clause
// forks from the entry state; fallthrough chains a clause's end state
// into the next clause; a missing default contributes the untouched
// entry state. Break inside a clause targets the switch itself.
func (ip *Interp) execSwitch(p *path, body *ast.BlockStmt, stack []*loopCtx, label string) {
	brk := &collector{}
	ctx := &loopCtx{label: label, brk: brk, isSwitch: true}
	inner := append(stack, ctx)

	var clauses []ast.Stmt
	if body != nil {
		clauses = body.List
	}
	out := &path{dead: true}
	hasDefault := false
	var fall *path // state chained from a fallthrough

	for ci, cs := range clauses {
		var caseExprs []ast.Expr
		var caseBody []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			caseExprs, caseBody = c.List, c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			caseBody = c.Body
			if c.Comm == nil {
				hasDefault = true
			} else {
				caseBody = append([]ast.Stmt{c.Comm}, caseBody...)
			}
		default:
			continue
		}
		cp := ip.fork(p)
		for _, e := range caseExprs {
			cp.st = ip.Client.Transfer(cp.st, e)
		}
		if fall != nil {
			ip.join(cp, fall)
			fall = nil
		}
		fellThrough := false
		for si, s := range caseBody {
			if cp.dead {
				break
			}
			if b, ok := s.(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH && si == len(caseBody)-1 {
				fellThrough = true
				break
			}
			ip.exec(cp, s, inner, "")
		}
		if fellThrough && ci < len(clauses)-1 {
			fall = cp
			continue
		}
		ip.join(out, cp)
	}
	if fall != nil {
		ip.join(out, fall)
	}
	if !hasDefault {
		ip.join(out, ip.fork(p)) // no clause matched
	}
	if brk.any {
		ip.join(out, &path{st: brk.st, defers: p.defers})
	}
	*p = *out
}

// findCtx locates the branch target on the context stack: the nearest
// matching label, or — unlabeled — the nearest loop for continue and
// the nearest loop/switch for break.
func findCtx(stack []*loopCtx, label *ast.Ident, isBreak bool) *loopCtx {
	for i := len(stack) - 1; i >= 0; i-- {
		c := stack[i]
		if label != nil {
			if c.label == label.Name {
				return c
			}
			continue
		}
		if isBreak || !c.isSwitch {
			return c
		}
	}
	return nil
}

// isNoReturnCall reports whether the expression statement is a call
// that never returns (panic, os.Exit, runtime.Goexit, log.Fatal*):
// such paths never reach an exit.
func isNoReturnCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			switch {
			case id.Name == "os" && fun.Sel.Name == "Exit",
				id.Name == "runtime" && fun.Sel.Name == "Goexit",
				id.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
				return true
			}
		}
	}
	return false
}
