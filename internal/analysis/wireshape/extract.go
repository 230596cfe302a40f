package wireshape

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis/flow"
)

// Asym is one encode/decode symmetry violation found while unifying a
// codec's two schemas.
type Asym struct {
	Pos token.Pos
	Msg string
}

type direction int

const (
	dirEncode direction = iota
	dirDecode
)

// maxInlineDepth bounds same-package wire-helper inlining; codecs are
// flat today, so anything deeper is recursion.
const maxInlineDepth = 6

// extractor symbolically walks one codec method body in execution
// order, emitting a wire step for every codec.Buffer write or
// codec.Reader read it proves will run, abstracting loops into repeat
// nodes bound to their count expression and conditional groups into
// cond nodes keyed to the transferred flag byte.
type extractor struct {
	in       *flow.Info
	dir      direction
	recvName string
	depth    int

	// Encode environments: canonical label -> path of the step that
	// wrote it, and collection text -> path of its len(...) field.
	fieldPath map[string]string
	lenPath   map[string]string

	// Decode environments: read-bound variables, make()-sized locals
	// and receiver fields, constructor-built objects with the header
	// fields their shape depends on, and validation facts.
	vars         map[types.Object]string   // -> "field:<path>"
	sized        map[types.Object]string   // -> bound spec
	sizedField   map[string]string         // field name -> bound spec
	cons         map[types.Object][]string // also: variables reshaped in place (bindShape)
	pathOrigin   map[string]flow.ReadOrigin
	rangeChecked map[string]bool
	remChecked   bool

	errs []Asym
}

func newExtractor(in *flow.Info, dir direction, fd *ast.FuncDecl) *extractor {
	ex := &extractor{
		in:           in,
		dir:          dir,
		fieldPath:    map[string]string{},
		lenPath:      map[string]string{},
		vars:         map[types.Object]string{},
		sized:        map[types.Object]string{},
		sizedField:   map[string]string{},
		cons:         map[types.Object][]string{},
		pathOrigin:   map[string]flow.ReadOrigin{},
		rangeChecked: map[string]bool{},
	}
	if id := flow.RecvIdent(fd); id != nil {
		ex.recvName = id.Name
	}
	return ex
}

func (ex *extractor) extract(fd *ast.FuncDecl) []*Step {
	var out []*Step
	ex.block(fd.Body.List, &out, "")
	return out
}

func (ex *extractor) errf(pos token.Pos, format string, args ...any) {
	ex.errs = append(ex.errs, Asym{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (ex *extractor) emit(out *[]*Step, prefix string, s *Step) *Step {
	s.Path = prefix + strconv.Itoa(len(*out))
	*out = append(*out, s)
	return s
}

// --- statement walk ---

func (ex *extractor) block(stmts []ast.Stmt, out *[]*Step, prefix string) {
	for _, st := range stmts {
		ex.stmt(st, out, prefix)
	}
}

func (ex *extractor) stmt(st ast.Stmt, out *[]*Step, prefix string) {
	switch x := st.(type) {
	case *ast.ExprStmt:
		ex.scanExpr(x.X, out, prefix)
		if ex.dir == dirDecode {
			ex.bindShape(x.X)
		}
	case *ast.AssignStmt:
		ex.assign(x, out, prefix)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ex.scanExpr(v, out, prefix)
					}
				}
			}
		}
	case *ast.IfStmt:
		ex.ifStmt(x, out, prefix)
	case *ast.ForStmt:
		ex.forStmt(x, out, prefix)
	case *ast.RangeStmt:
		ex.rangeStmt(x, out, prefix)
	case *ast.BlockStmt:
		ex.block(x.List, out, prefix)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			ex.scanExpr(r, out, prefix)
		}
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// no wire operations possible
	default:
		// defer/go, switch, select, labeled statements: the linear
		// schema model cannot order wire operations inside these, so
		// they are only legal when they move no bytes.
		if ex.hasWireOps(st) {
			ex.errf(st.Pos(), "wire operation inside unsupported control flow (%T); restructure into straight-line code, if, or for", st)
		}
	}
}

func (ex *extractor) assign(x *ast.AssignStmt, out *[]*Step, prefix string) {
	if len(x.Lhs) != len(x.Rhs) {
		for _, r := range x.Rhs {
			ex.scanExpr(r, out, prefix)
		}
		return
	}
	for i := range x.Rhs {
		before := len(*out)
		ex.scanExpr(x.Rhs[i], out, prefix)
		if ex.dir == dirDecode {
			ex.bindDecode(x.Lhs[i], x.Rhs[i], out, before)
		}
	}
}

func (ex *extractor) ifStmt(x *ast.IfStmt, out *[]*Step, prefix string) {
	if x.Init != nil {
		ex.stmt(x.Init, out, prefix)
	}
	before := len(*out)
	ex.scanExpr(x.Cond, out, prefix)
	condSteps := (*out)[before:]
	bodyWire := ex.hasWireOps(x.Body)
	elseWire := x.Else != nil && ex.hasWireOps(x.Else)
	if !bodyWire && !elseWire {
		// A branch that moves no bytes is a validation/early-error
		// check; it only contributes guard facts.
		ex.noteGuards(x.Cond)
		return
	}
	key := ""
	switch {
	case ex.dir == dirDecode && len(condSteps) == 1 && condSteps[0].Op == OpByte:
		key = "field:" + condSteps[0].Path
	case len(condSteps) == 0:
		// Encode: the flag expression was written earlier (fieldPath);
		// decode: it was read into a variable earlier (vars).
		if spec, ok := ex.atomBound(condFlagExpr(x.Cond)); ok && strings.HasPrefix(spec, "field:") {
			key = spec
		}
	}
	if key == "" {
		ex.errf(x.Pos(), "conditional wire fields are not keyed to a transferred flag byte")
		key = "?"
	}
	cond := ex.emit(out, prefix, &Step{Kind: StepCond, Key: key, Pos: x.Pos()})
	ex.block(x.Body.List, &cond.Body, cond.Path+".")
	switch e := x.Else.(type) {
	case nil:
	case *ast.BlockStmt:
		ex.block(e.List, &cond.Else, cond.Path+".")
	default: // else-if chain
		ex.stmt(e, &cond.Else, cond.Path+".")
	}
}

func (ex *extractor) forStmt(x *ast.ForStmt, out *[]*Step, prefix string) {
	if !ex.hasWireOps(x.Body) {
		return // pure compute loop (collection, sizing): no bytes move
	}
	if x.Init != nil {
		ex.stmt(x.Init, out, prefix)
	}
	var spec string
	var deps []string
	if cond, ok := ast.Unparen(x.Cond).(*ast.BinaryExpr); ok && (cond.Op == token.LSS || cond.Op == token.LEQ) {
		spec, deps, _ = ex.resolveBound(cond.Y)
	} else {
		ex.errf(x.Pos(), "wire loop without a recognizable `i < bound` condition")
		spec = "expr:?"
	}
	if call, elem, width, ok := ex.chunkedRun(x); ok {
		ex.emitRun(out, prefix, call.Pos(), spec, ex.decGuard(spec, deps), elem, width)
		return
	}
	ex.emitRepeat(out, prefix, x.Pos(), spec, deps, x.Body)
}

// chunkedRun recognizes a decode loop that reads one run in chunks,
//
//	for j, c := 0, 0; j < n; j += c {
//		c = min(n-j, len(buf)/2)
//		r.Uint64s(buf[:2*c])
//		...
//	}
//
// whose only wire operation is a run read of c records and whose
// counter advances by that same c: it reads n records, as one run into
// x[:2*n] would, and is that run's repeat over the loop's bound.
func (ex *extractor) chunkedRun(x *ast.ForStmt) (call *ast.CallExpr, elem flow.WireClass, width int, ok bool) {
	post, isAssign := x.Post.(*ast.AssignStmt)
	cond, isCmp := ast.Unparen(x.Cond).(*ast.BinaryExpr)
	if ex.dir != dirDecode || !isAssign || !isCmp || post.Tok != token.ADD_ASSIGN || len(post.Lhs) != 1 ||
		ex.render(post.Lhs[0]) != ex.render(cond.X) {
		return nil, 0, 0, false
	}
	calls := 0
	ast.Inspect(x.Body, func(n ast.Node) bool {
		if c, isCall := n.(*ast.CallExpr); isCall && ex.isWireCall(c) {
			calls++
			call = c
			return false
		}
		return true
	})
	if calls != 1 {
		return nil, 0, 0, false
	}
	elem, isRun := ex.in.ReaderRunOp(call)
	if !isRun {
		return nil, 0, 0, false
	}
	dst, width := runGroups(call.Args[0])
	sl, isSlice := ast.Unparen(dst).(*ast.SliceExpr)
	if !isSlice || sl.High == nil || ex.render(sl.High) != ex.render(post.Rhs[0]) {
		return nil, 0, 0, false
	}
	return call, elem, width, true
}

// emitRun emits a run read: a repeat over spec of width elements.
func (ex *extractor) emitRun(out *[]*Step, prefix string, pos token.Pos, spec, guard string, elem flow.WireClass, width int) {
	rep := ex.emit(out, prefix, &Step{Kind: StepRepeat, DecBound: spec, Guard: guard, Pos: pos})
	for i := 0; i < width; i++ {
		ex.emit(&rep.Body, rep.Path+".", &Step{Kind: StepField, Op: elem.String(), Pos: pos})
	}
}

func (ex *extractor) rangeStmt(x *ast.RangeStmt, out *[]*Step, prefix string) {
	if !ex.hasWireOps(x.Body) {
		return
	}
	spec, deps := ex.rangeBound(x.X)
	ex.emitRepeat(out, prefix, x.Pos(), spec, deps, x.Body)
}

func (ex *extractor) emitRepeat(out *[]*Step, prefix string, pos token.Pos, spec string, deps []string, body *ast.BlockStmt) {
	s := &Step{Kind: StepRepeat, Pos: pos}
	if ex.dir == dirEncode {
		s.EncBound = spec
	} else {
		s.DecBound = spec
		s.Guard = ex.decGuard(spec, deps)
	}
	rep := ex.emit(out, prefix, s)
	ex.block(body.List, &rep.Body, rep.Path+".")
}

// --- expression scan ---

// scanExpr walks an expression in evaluation order, emitting a step
// for every wire call. Matched calls are not descended into; helpers
// carrying wire facts are inlined.
func (ex *extractor) scanExpr(e ast.Expr, out *[]*Step, prefix string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		return !ex.handleCall(call, out, prefix)
	})
}

// handleCall emits steps for wire calls, returning true when the call
// was consumed (do not descend).
func (ex *extractor) handleCall(call *ast.CallExpr, out *[]*Step, prefix string) bool {
	if ex.dir == dirEncode {
		if class, ok := ex.in.BufferWriteOp(call); ok {
			label, isLen, lenOf := "?", false, ""
			if len(call.Args) == 1 {
				label, isLen, lenOf = ex.encodeLabel(call.Args[0])
			}
			s := ex.emit(out, prefix, &Step{Kind: StepField, Op: class.String(), Label: label, IsLen: isLen, Pos: call.Pos()})
			if _, dup := ex.fieldPath[label]; !dup {
				ex.fieldPath[label] = s.Path
			}
			if isLen {
				if _, dup := ex.lenPath[lenOf]; !dup {
					ex.lenPath[lenOf] = s.Path
				}
			}
			return true
		}
	} else if class, origin, ok := ex.in.ReaderReadOp(call); ok {
		s := ex.emit(out, prefix, &Step{Kind: StepField, Op: class.String(), Pos: call.Pos()})
		ex.pathOrigin[s.Path] = origin
		return true
	} else if elem, ok := ex.in.ReaderRunOp(call); ok {
		// A run read is the loop it replaces: a repeat of one element
		// over the destination's length — or, into x[:k*n], of k
		// elements over n — validated like any loop bound.
		dst, width := runGroups(call.Args[0])
		spec, deps := ex.rangeBound(dst)
		ex.emitRun(out, prefix, call.Pos(), spec, ex.decGuard(spec, deps), elem, width)
		return true
	}
	fn := ex.wireHelper(call)
	if fn == nil {
		return false
	}
	fd := ex.in.Funcs[fn]
	if fd == nil || ex.depth >= maxInlineDepth {
		ex.errf(call.Pos(), "cannot inline wire helper %s (recursion or missing body)", fn.Name())
		return true
	}
	for _, a := range call.Args {
		ex.scanExpr(a, out, prefix)
	}
	saved := ex.recvName
	ex.recvName = ""
	if id := flow.RecvIdent(fd); id != nil {
		ex.recvName = id.Name
	}
	ex.depth++
	ex.block(fd.Body.List, out, prefix)
	ex.depth--
	ex.recvName = saved
	return true
}

// runGroups splits a run destination of the form x[:k*n] or x[:n*k],
// k an integer literal, into x[:n] and the group width k: the run
// reads n records of k elements each (a point's coordinates, say).
// Any other destination is one element wide.
func runGroups(dst ast.Expr) (ast.Expr, int) {
	sl, ok := ast.Unparen(dst).(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.High == nil || sl.Slice3 {
		return dst, 1
	}
	mul, ok := ast.Unparen(sl.High).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return dst, 1
	}
	for _, f := range [2][2]ast.Expr{{mul.X, mul.Y}, {mul.Y, mul.X}} {
		if lit, ok := ast.Unparen(f[0]).(*ast.BasicLit); ok && lit.Kind == token.INT {
			if k, err := strconv.Atoi(lit.Value); err == nil && k >= 1 {
				return &ast.SliceExpr{X: sl.X, Lbrack: sl.Lbrack, High: f[1], Rbrack: sl.Rbrack}, k
			}
		}
	}
	return dst, 1
}

// hasWireOps reports whether the subtree performs any wire operation,
// directly or through a same-package helper with wire facts.
func (ex *extractor) hasWireOps(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok && ex.isWireCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (ex *extractor) isWireCall(call *ast.CallExpr) bool {
	if ex.dir == dirEncode {
		if _, ok := ex.in.BufferWriteOp(call); ok {
			return true
		}
	} else if _, _, ok := ex.in.ReaderReadOp(call); ok {
		return true
	} else if _, ok := ex.in.ReaderRunOp(call); ok {
		return true
	}
	return ex.wireHelper(call) != nil
}

// wireHelper returns the same-package function a call inlines as a
// helper for this payload: one with wire facts in this direction that
// is handed the payload's Buffer or Reader. A callee with wire facts
// but no handle moves some other frame's bytes (a nested codec, a
// sanitize assertion re-decoding the frame), not this one's.
func (ex *extractor) wireHelper(call *ast.CallExpr) *types.Func {
	fn, sum := ex.in.FuncOf(call)
	if fn == nil || sum == nil {
		return nil
	}
	if ex.dir == dirEncode && sum.WritesWire && ex.in.PassesCodec(call, "Buffer") ||
		ex.dir == dirDecode && sum.ReadsWire && ex.in.PassesCodec(call, "Reader") {
		return fn
	}
	return nil
}

// --- decode bindings and guards ---

// bindDecode records what a decode assignment means for later bound
// resolution: a read-bound variable, a make()-sized slice, or a
// constructor call seeded from header fields.
func (ex *extractor) bindDecode(lhs, rhs ast.Expr, out *[]*Step, before int) {
	if call, ok := ex.stripConv(rhs).(*ast.CallExpr); ok {
		if _, _, isRead := ex.in.ReaderReadOp(call); isRead && len(*out) == before+1 {
			if obj := ex.lhsObj(lhs); obj != nil {
				ex.vars[obj] = "field:" + (*out)[before].Path
			}
			return
		}
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
	isMake := isIdent && id.Name == "make" && ex.in.Callee(call) == nil && len(call.Args) >= 2
	// codec.Resize(s, n) sizes like make([]T, n), in s's storage.
	if isMake || ex.in.IsCodecFunc(call, "Resize") && len(call.Args) == 2 {
		sizeArg := call.Args[1]
		if isZeroLit(sizeArg) && len(call.Args) >= 3 {
			sizeArg = call.Args[2] // make([]T, 0, n): capacity carries the count
		}
		bound, _, _ := ex.resolveBound(sizeArg)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := ex.in.ObjOf(l); obj != nil {
				ex.sized[obj] = bound
			}
		case *ast.SelectorExpr:
			ex.sizedField[l.Sel.Name] = bound
		}
		return
	}
	if fn := ex.in.Callee(call); fn != nil {
		var deps []string
		for _, a := range call.Args {
			if spec, _, resolved := ex.resolveBound(a); resolved && strings.HasPrefix(spec, "field:") {
				deps = append(deps, spec)
			}
		}
		if len(deps) > 0 {
			if obj := ex.lhsObj(lhs); obj != nil {
				ex.cons[obj] = deps
			}
		}
	}
}

// bindShape records a method call on a variable — the decoder's own
// receiver, reshaped in place — whose arguments are header fields: the
// shape of that variable's columns depends on those fields from here
// on, as a constructor's result does on its arguments.
func (ex *extractor) bindShape(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := ex.lhsObj(sel.X)
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	for _, a := range call.Args {
		if spec, _, resolved := ex.resolveBound(a); resolved && strings.HasPrefix(spec, "field:") {
			ex.cons[obj] = append(ex.cons[obj], spec)
		}
	}
}

func (ex *extractor) lhsObj(lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	return ex.in.ObjOf(id)
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// noteGuards harvests validation facts from a byte-free branch
// condition: a Remaining() comparison, or range checks over
// read-bound variables.
func (ex *extractor) noteGuards(cond ast.Expr) {
	if ex.dir != dirDecode {
		return
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if ex.in.IsReaderCall(x, "Remaining") {
				ex.remChecked = true
			}
		case *ast.Ident:
			if obj := ex.in.ObjOf(x); obj != nil {
				if spec, ok := ex.vars[obj]; ok {
					ex.rangeChecked[strings.TrimPrefix(spec, "field:")] = true
				}
			}
		}
		return true
	})
}

// decGuard classifies how a decode loop bound is validated before the
// loop runs: an ArrayLen count (checked against remaining payload at
// read time), an explicit Remaining() comparison, a range check on
// the bound's header fields, or a compile-time constant. "" means
// unvalidated — a symmetry error at unify time.
func (ex *extractor) decGuard(spec string, deps []string) string {
	if strings.HasPrefix(spec, "const:") {
		return "const"
	}
	if p, ok := strings.CutPrefix(spec, "field:"); ok {
		if ex.pathOrigin[p] == flow.OriginArrayLen {
			return "arraylen"
		}
		deps = append(deps, spec)
	}
	if ex.remChecked {
		return "remaining"
	}
	for _, d := range deps {
		if p, ok := strings.CutPrefix(d, "field:"); ok && ex.rangeChecked[p] {
			return "range"
		}
	}
	return ""
}

// --- bound and label resolution ---

// resolveBound turns a count expression into a bound spec:
// "field:<path>" when it resolves to a transferred header field,
// "const:<n>" for literals, else "expr:<rendered>" with field
// references substituted. deps collects the referenced field paths;
// resolved reports whether every atom resolved.
func (ex *extractor) resolveBound(e ast.Expr) (spec string, deps []string, resolved bool) {
	e = ex.stripConv(e)
	if lit, ok := e.(*ast.BasicLit); ok {
		return "const:" + lit.Value, nil, true
	}
	if spec, ok := ex.atomBound(e); ok {
		if strings.HasPrefix(spec, "field:") {
			deps = []string{spec}
		}
		return spec, deps, true
	}
	resolved = true
	text := ex.renderBound(e, &deps, &resolved)
	return "expr:" + text, deps, resolved
}

// atomBound resolves a single atom (ident, selector, index, len(...)
// call) to a transferred-field bound.
func (ex *extractor) atomBound(e ast.Expr) (string, bool) {
	e = ex.stripConv(e)
	if ex.dir == dirEncode {
		if call, ok := e.(*ast.CallExpr); ok && isLenBuiltin(ex.in, call) {
			if p, ok := ex.lenPath[ex.render(call.Args[0])]; ok {
				return "field:" + p, true
			}
			return "", false
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
			if p, ok := ex.fieldPath[ex.render(e)]; ok {
				return "field:" + p, true
			}
		}
		return "", false
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj := ex.in.ObjOf(x); obj != nil {
			if spec, ok := ex.vars[obj]; ok {
				return spec, true
			}
			if spec, ok := ex.sized[obj]; ok {
				return spec, true
			}
		}
	case *ast.SelectorExpr:
		if spec, ok := ex.sizedField[x.Sel.Name]; ok {
			return spec, true
		}
	}
	return "", false
}

// renderBound renders a compound bound expression, substituting
// resolved atoms with their field specs.
func (ex *extractor) renderBound(e ast.Expr, deps *[]string, resolved *bool) string {
	e = ex.stripConv(e)
	if spec, ok := ex.atomBound(e); ok {
		if strings.HasPrefix(spec, "field:") {
			*deps = append(*deps, spec)
		}
		return spec
	}
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Value
	case *ast.BinaryExpr:
		return ex.renderBound(x.X, deps, resolved) + x.Op.String() + ex.renderBound(x.Y, deps, resolved)
	case *ast.UnaryExpr:
		return x.Op.String() + ex.renderBound(x.X, deps, resolved)
	default:
		*resolved = false
		return ex.render(e)
	}
}

// rangeBound resolves the collection of a range loop: a field bound
// when a previously transferred len(...) (encode) or make() sizing
// (decode) pins its length, else a named column of the summary whose
// length the decoder derives from header fields (constructor args).
func (ex *extractor) rangeBound(coll ast.Expr) (string, []string) {
	coll = ast.Unparen(coll)
	if ex.dir == dirEncode {
		if p, ok := ex.lenPath[ex.render(coll)]; ok {
			return "field:" + p, []string{"field:" + p}
		}
		return "col:" + ex.render(coll), nil
	}
	if spec, ok := ex.atomBound(coll); ok {
		var deps []string
		if strings.HasPrefix(spec, "field:") {
			deps = []string{spec}
		}
		return spec, deps
	}
	if sl, ok := coll.(*ast.SliceExpr); ok && sl.Low == nil && sl.High != nil && !sl.Slice3 {
		spec, deps, _ := ex.resolveBound(sl.High) // x[:n] holds n elements
		return spec, deps
	}
	if sel, ok := coll.(*ast.SelectorExpr); ok {
		var deps []string
		if root := flow.RootIdent(sel.X); root != nil {
			if obj := ex.in.ObjOf(root); obj != nil {
				deps = ex.cons[obj]
			}
		}
		return "col:" + sel.Sel.Name, deps
	}
	return "col:" + ex.render(coll), nil
}

// encodeLabel canonicalizes the encode-side source expression: type
// conversions stripped, the receiver prefix dropped, no spaces.
// len(...) arguments mark length fields and record what they size.
func (ex *extractor) encodeLabel(arg ast.Expr) (label string, isLen bool, lenOf string) {
	e := ex.stripConv(arg)
	if call, ok := e.(*ast.CallExpr); ok && isLenBuiltin(ex.in, call) {
		inner := ex.render(call.Args[0])
		return "len(" + inner + ")", true, inner
	}
	return ex.render(e), false, ""
}

// stripConv unwraps parens and type conversions (uint64(x), uint8(x))
// down to the converted operand.
func (ex *extractor) stripConv(e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		if tv, ok := ex.in.TypesInfo.Types[call.Fun]; !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// render prints an expression canonically for labels and expr bounds:
// receiver prefix stripped, conversions elided, call arguments
// elided, no spaces (the snapshot format is space-separated).
func (ex *extractor) render(e ast.Expr) string {
	e = ex.stripConv(e)
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && ex.recvName != "" && id.Name == ex.recvName {
			return x.Sel.Name
		}
		return ex.render(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return ex.render(x.X) + "[" + ex.render(x.Index) + "]"
	case *ast.CallExpr:
		if isLenBuiltin(ex.in, x) {
			return "len(" + ex.render(x.Args[0]) + ")"
		}
		return ex.render(x.Fun) + "()"
	case *ast.BasicLit:
		return x.Value
	case *ast.BinaryExpr:
		return ex.render(x.X) + x.Op.String() + ex.render(x.Y)
	case *ast.UnaryExpr:
		return x.Op.String() + ex.render(x.X)
	case *ast.StarExpr:
		return ex.render(x.X)
	default:
		return "?"
	}
}

func isLenBuiltin(in *flow.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "len" && in.Callee(call) == nil && len(call.Args) == 1
}

// condFlagExpr unwraps a negation to the flag expression itself.
func condFlagExpr(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		return u.X
	}
	return e
}
