package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Summary is one function's interprocedural fact row. Facts are
// computed per package with a bounded worklist fixpoint, so a fact
// set on a helper propagates to the same-package functions that call
// it; analyzers then consult only the summary of a call's direct
// callee (one-level lookup, transitively folded).
type Summary struct {
	// PoolSource: the function returns a value obtained from a pool
	// (codec.GetBuffer, a GetScratch method, sync.Pool.Get, or a
	// same-package PoolSource callee). Functions that also return a
	// func-typed value are excluded: that shape is the borrow/release
	// pair (mg's combineAccumulator), whose lifetime is managed by the
	// returned closure, not the caller's Put.
	PoolSource bool

	// SinkParams[i]: parameter i is released to a pool on some path
	// (passed to PutBuffer/PutScratch/Pool.Put or to a same-package
	// sink).
	SinkParams []bool

	// AliasParams[i]: some return value may alias pointer-shaped
	// parameter i (readLengthPrefixed returning f's backing bytes).
	AliasParams []bool

	// WritesRecv: the method writes receiver state — a field
	// assignment rooted at the receiver, an in-place sort/clear/
	// delete of receiver-rooted data, or a call of a same-package
	// WritesRecv method on its own receiver.
	WritesRecv bool

	// Draws: the function draws from an RNG (a draw method on a
	// gen-package type, or math/rand), directly or through a
	// same-package callee.
	Draws bool
	// DrawName names the draw for diagnostics ("RNG.Uint64").
	DrawName string

	// Clock: the function reads the wall clock (time.Now/Since),
	// directly or through a same-package callee.
	Clock bool

	// MapRangeEncode: the function ranges over a map and feeds codec
	// Buffer writes from inside the loop — iteration-order-dependent
	// bytes — directly or through a same-package callee.
	MapRangeEncode bool

	// WritesWire: the function appends payload bytes to a codec.Buffer
	// (directly or through a same-package callee). The wireshape
	// analyzer inlines same-package helpers with this fact when it
	// extracts a codec's wire schema.
	WritesWire bool

	// ReadsWire: the function consumes payload bytes from a
	// codec.Reader (directly or through a same-package callee).
	ReadsWire bool

	// Blocking classifies the heaviest lock-hostile operation the
	// function performs, directly or through a same-package callee:
	// "" (none), "decode", "I/O", "channel", "sleep" or "pool-get".
	Blocking string
	// BlockingVia names the callee chain for diagnostics ("" when the
	// operation is in the function itself).
	BlockingVia string
	// BlockingPos is the operation's position (for reference).
	BlockingPos token.Pos
}

// Draw-method names on gen-package types. Getters (State, Seed) are
// deliberately absent: persisting RNG state is how codecs stay pure.
var drawNames = map[string]bool{
	"Uint64": true, "Uint64n": true, "Intn": true, "Int63": true,
	"Float64": true, "Bool": true, "Norm": true, "NormFloat64": true,
	"Exp": true, "ExpFloat64": true, "Perm": true, "Shuffle": true,
}

// Buffer write-method names: calls that append payload bytes, whose
// order becomes wire order.
var bufferWriteNames = map[string]bool{
	"Uint64": true, "Int": true, "Bool": true, "Float64": true,
}

// blockingRank orders classes so the fixpoint keeps the most severe.
var blockingRank = map[string]int{"": 0, "pool-get": 1, "sleep": 2, "channel": 3, "I/O": 4, "decode": 5}

// IsDirectPoolGet reports whether the call is a direct pool
// acquisition: codec.GetBuffer, any GetScratch method, or
// sync.Pool.Get.
func (in *Info) IsDirectPoolGet(call *ast.CallExpr) bool {
	name := CalleeName(call)
	switch name {
	case "GetScratch":
		return true
	case "GetBuffer":
		fn := in.Callee(call)
		return fn != nil && pathIs(pkgPathOf(fn), "codec")
	case "Get":
		fn := in.Callee(call)
		return fn != nil && pkgPathOf(fn) == "sync" && RecvTypeName(fn) == "Pool"
	}
	return false
}

// PoolPutArg returns the argument expression a direct pool release
// recycles (codec.PutBuffer, PutScratch methods, sync.Pool.Put), or
// nil when the call is not one.
func (in *Info) PoolPutArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	switch CalleeName(call) {
	case "PutScratch":
		return call.Args[0]
	case "PutBuffer":
		if fn := in.Callee(call); fn != nil && pathIs(pkgPathOf(fn), "codec") {
			return call.Args[0]
		}
	case "Put":
		if fn := in.Callee(call); fn != nil && pkgPathOf(fn) == "sync" && RecvTypeName(fn) == "Pool" {
			return call.Args[0]
		}
	}
	return nil
}

// buildSummaries computes the package's summary table: local facts
// first, then a bounded fixpoint folding same-package callee facts
// into callers.
func (in *Info) buildSummaries() {
	for fn, fd := range in.Funcs {
		in.Summaries[fn] = in.localSummary(fn, fd)
	}
	// Propagate through same-package calls until stable. The call
	// graph is small (one package); 10 rounds bounds pathological
	// cycles.
	for round := 0; round < 10; round++ {
		changed := false
		for fn, fd := range in.Funcs {
			if in.propagate(fn, fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// paramObjs returns the function's parameter objects in order.
func (in *Info) paramObjs(fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, in.TypesInfo.Defs[name])
		}
	}
	return out
}

// localSummary extracts the facts visible in one function body alone.
func (in *Info) localSummary(fn *types.Func, fd *ast.FuncDecl) *Summary {
	s := &Summary{}
	params := in.paramObjs(fd)
	s.SinkParams = make([]bool, len(params))
	s.AliasParams = make([]bool, len(params))
	paramIdx := map[types.Object]int{}
	for i, p := range params {
		if p != nil {
			paramIdx[p] = i
		}
	}

	// rootedAt: local objects whose value may alias a parameter,
	// grown flow-insensitively through assignment chains.
	rootedAt := map[types.Object]int{}
	for obj, i := range paramIdx {
		rootedAt[obj] = i
	}
	for pass := 0; pass < 4; pass++ {
		grew := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := in.ObjOf(id)
				if obj == nil {
					continue
				}
				if _, done := rootedAt[obj]; done {
					continue
				}
				if root := RootIdent(as.Rhs[i]); root != nil {
					if robj := in.ObjOf(root); robj != nil {
						if pi, ok := rootedAt[robj]; ok {
							rootedAt[obj] = pi
							grew = true
						}
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	recv := RecvIdent(fd)
	var recvObj types.Object
	if recv != nil {
		recvObj = in.TypesInfo.Defs[recv]
	}
	rootsAtRecv := func(e ast.Expr) bool {
		id := RootIdent(e)
		return id != nil && recvObj != nil && in.ObjOf(id) == recvObj
	}

	// getVars: locals assigned from a direct pool get (value-numbered
	// through assert/paren by RootIdent on the RHS call result via
	// direct inspection).
	getVars := map[types.Object]bool{}

	hasFuncResult := false
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			if tv, ok := in.TypesInfo.Types[r.Type]; ok && tv.Type != nil {
				if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
					hasFuncResult = true
				}
			}
		}
	}

	// containsGet unwraps parens/type-asserts down to a direct pool
	// get call.
	var containsGet func(e ast.Expr) bool
	containsGet = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return in.IsDirectPoolGet(x)
		case *ast.TypeAssertExpr:
			return containsGet(x.X)
		case *ast.StarExpr:
			return containsGet(x.X)
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i := range x.Lhs {
				if i < len(x.Rhs) && len(x.Lhs) == len(x.Rhs) {
					if id, ok := x.Lhs[i].(*ast.Ident); ok && containsGet(x.Rhs[i]) {
						if obj := in.ObjOf(id); obj != nil {
							getVars[obj] = true
						}
					}
				}
				if rootsAtRecv(x.Lhs[i]) {
					if id, isIdent := x.Lhs[i].(*ast.Ident); !isIdent || id == nil || in.ObjOf(id) != recvObj {
						s.WritesRecv = true
					} else if x.Tok != token.DEFINE {
						// Reassigning the receiver variable itself
						// (*s = v is a StarExpr LHS, caught above).
						s.WritesRecv = true
					}
				}
			}
		case *ast.IncDecStmt:
			if rootsAtRecv(x.X) {
				s.WritesRecv = true
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if containsGet(res) && !hasFuncResult {
					s.PoolSource = true
				}
				if root := RootIdent(res); root != nil {
					if obj := in.ObjOf(root); obj != nil {
						if getVars[obj] && !hasFuncResult {
							s.PoolSource = true
						}
						if pi, ok := rootedAt[obj]; ok && resultMayAlias(in, res) {
							s.AliasParams[pi] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			in.classifyCall(s, x, paramIdx, rootsAtRecv)
		case *ast.SendStmt:
			s.noteBlocking("channel", "", x.Pos())
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.noteBlocking("channel", "", x.Pos())
			}
		case *ast.SelectStmt:
			s.noteBlocking("channel", "", x.Pos())
		case *ast.RangeStmt:
			if tv, ok := in.TypesInfo.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.noteBlocking("channel", "", x.Pos())
				}
			}
			if in.IsMapType(x.X) && in.RangeFeedsBuffer(x) {
				s.MapRangeEncode = true
			}
		}
		return true
	})
	return s
}

// IsDrawName reports whether name is an RNG draw-method name (the
// class encodepure bans on gen-package receivers).
func IsDrawName(name string) bool { return drawNames[name] }

// RangeFeedsBuffer reports whether the range body writes payload
// bytes directly: a call to a codec.Buffer write method (Uint64, Int,
// Bool, Float64) anywhere inside the loop. Collect-then-sort loops
// (append ids, sort, then write) stay clean because the writes sit
// after the loop.
func (in *Info) RangeFeedsBuffer(r *ast.RangeStmt) bool {
	found := false
	ast.Inspect(r.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		name := CalleeName(call)
		if !bufferWriteNames[name] {
			return true
		}
		if fn := in.Callee(call); fn != nil &&
			RecvTypeName(fn) == "Buffer" && pathIs(RecvTypePkgPath(fn), "codec") {
			found = true
			return false
		}
		return true
	})
	return found
}

// resultMayAlias limits AliasParams to reference-shaped results:
// slices, pointers and maps can alias a parameter's memory; scalars
// and strings copied out of it cannot retain it.
func resultMayAlias(in *Info, res ast.Expr) bool {
	tv, ok := in.TypesInfo.Types[res]
	if !ok || tv.Type == nil {
		return true
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// classifyCall folds one call's contribution into the local summary.
func (in *Info) classifyCall(s *Summary, call *ast.CallExpr, paramIdx map[types.Object]int, rootsAtRecv func(ast.Expr) bool) {
	name := CalleeName(call)
	fn := in.Callee(call)
	pkg := pkgPathOf(fn)

	// Pool sinks: a parameter (or its address) released to a pool.
	if arg := in.PoolPutArg(call); arg != nil {
		if root := RootIdent(arg); root != nil {
			if obj := in.ObjOf(root); obj != nil {
				if pi, ok := paramIdx[obj]; ok {
					s.SinkParams[pi] = true
				}
			}
		}
	}

	// Receiver mutation through stdlib in-place mutators.
	if fn != nil && pkg == "sort" && (name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable" ||
		strings.HasPrefix(name, "Float64s") || strings.HasPrefix(name, "Ints") || strings.HasPrefix(name, "Strings")) {
		if len(call.Args) > 0 && rootsAtRecv(call.Args[0]) {
			s.WritesRecv = true
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "clear" || id.Name == "delete") && in.Callee(call) == nil {
		if len(call.Args) > 0 && rootsAtRecv(call.Args[0]) {
			s.WritesRecv = true
		}
	}

	// Wire operations: payload writes to a codec.Buffer and payload
	// reads from a codec.Reader.
	if _, ok := in.BufferWriteOp(call); ok {
		s.WritesWire = true
	}
	if _, _, ok := in.ReaderReadOp(call); ok {
		s.ReadsWire = true
	}
	if _, ok := in.ReaderRunOp(call); ok {
		s.ReadsWire = true
	}

	// RNG draws: draw-named methods on gen-package types, or any
	// math/rand use.
	if fn != nil {
		if drawNames[name] && pathIs(RecvTypePkgPath(fn), "gen") {
			s.Draws = true
			s.DrawName = RecvTypeName(fn) + "." + name
		}
		if pkg == "math/rand" || pkg == "math/rand/v2" {
			s.Draws = true
			s.DrawName = "rand." + name
		}
		if pkg == "time" && (name == "Now" || name == "Since") {
			s.Clock = true
		}
	}

	// Blocking classes.
	switch {
	case name == "DecodeInto" || name == "UnmarshalBinary" || name == "Decode" || name == "DecodeFrame" || name == "ReadFrame":
		s.noteBlocking("decode", "", call.Pos())
	case fn != nil && pkg == "fmt" && strings.HasPrefix(name, "Fprint"):
		s.noteBlocking("I/O", "", call.Pos())
	case fn != nil && isIOPkg(pkg):
		s.noteBlocking("I/O", "", call.Pos())
	case fn != nil && isIOPkg(RecvTypePkgPath(fn)):
		s.noteBlocking("I/O", "", call.Pos())
	case fn != nil && pkg == "time" && name == "Sleep":
		s.noteBlocking("sleep", "", call.Pos())
	case in.IsDirectPoolGet(call):
		s.noteBlocking("pool-get", "", call.Pos())
	}
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

// lockflowOK reports whether fn's declaration carries lockflow's
// opt-out. The annotation says "what this function does is meant to run
// under its callers' locks", so the function's Blocking fact stops
// there instead of tainting those callers — otherwise the one argued
// exception would have to be repeated up every call chain.
func (in *Info) lockflowOK(fn *types.Func) bool {
	return HasAnnotation(in.Funcs[fn], "//sketch:lockflow-ok")
}

// noteBlocking records a blocking fact, keeping the most severe class.
func (s *Summary) noteBlocking(class, via string, pos token.Pos) {
	if blockingRank[class] > blockingRank[s.Blocking] {
		s.Blocking, s.BlockingVia, s.BlockingPos = class, via, pos
	}
}

// propagate folds direct same-package callees' facts into fn's
// summary; reports whether anything changed.
func (in *Info) propagate(fn *types.Func, fd *ast.FuncDecl) bool {
	s := in.Summaries[fn]
	recv := RecvIdent(fd)
	var recvObj types.Object
	if recv != nil {
		recvObj = in.TypesInfo.Defs[recv]
	}
	params := in.paramObjs(fd)
	paramIdx := map[types.Object]int{}
	for i, p := range params {
		if p != nil {
			paramIdx[p] = i
		}
	}
	// Locals holding pool-gotten values feed PoolSource through the
	// fixpoint too: v := helper() where helper is PoolSource, then
	// return v.
	sourceVars := map[types.Object]bool{}

	changed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			callee, cs := in.FuncOf(x)
			if callee == nil || cs == nil || cs == s {
				return true
			}
			if cs.Draws && !s.Draws {
				s.Draws, s.DrawName, changed = true, cs.DrawName, true
			}
			if cs.Clock && !s.Clock {
				s.Clock, changed = true, true
			}
			if cs.MapRangeEncode && !s.MapRangeEncode {
				s.MapRangeEncode, changed = true, true
			}
			if cs.WritesWire && !s.WritesWire {
				s.WritesWire, changed = true, true
			}
			if cs.ReadsWire && !s.ReadsWire {
				s.ReadsWire, changed = true, true
			}
			if cs.Blocking != "" && !in.lockflowOK(callee) && blockingRank[cs.Blocking] > blockingRank[s.Blocking] {
				via := callee.Name()
				if cs.BlockingVia != "" {
					via += " → " + cs.BlockingVia
				}
				s.noteBlocking(cs.Blocking, via, x.Pos())
				changed = true
			}
			if cs.WritesRecv && !s.WritesRecv {
				if root := RecvRoot(x); root != nil && recvObj != nil && in.ObjOf(root) == recvObj {
					s.WritesRecv, changed = true, true
				}
			}
			for i, sink := range cs.SinkParams {
				if !sink || i >= len(x.Args) {
					continue
				}
				if root := RootIdent(x.Args[i]); root != nil {
					if obj := in.ObjOf(root); obj != nil {
						if pi, ok := paramIdx[obj]; ok && !s.SinkParams[pi] {
							s.SinkParams[pi], changed = true, true
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				// v, ok := ... or multi-return: check the first LHS
				// against a PoolSource call result.
				if len(x.Rhs) == 1 && len(x.Lhs) > 0 {
					if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
						if _, cs := in.FuncOf(call); cs != nil && cs.PoolSource {
							if id, ok := x.Lhs[0].(*ast.Ident); ok {
								if obj := in.ObjOf(id); obj != nil {
									sourceVars[obj] = true
								}
							}
						}
					}
				}
				return true
			}
			for i := range x.Lhs {
				if call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr); ok {
					if _, cs := in.FuncOf(call); cs != nil && cs.PoolSource {
						if id, ok := x.Lhs[i].(*ast.Ident); ok {
							if obj := in.ObjOf(id); obj != nil {
								sourceVars[obj] = true
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if _, cs := in.FuncOf(call); cs != nil && cs.PoolSource && !s.PoolSource {
						s.PoolSource, changed = true, true
					}
				}
				if root := RootIdent(res); root != nil {
					if obj := in.ObjOf(root); obj != nil && sourceVars[obj] && !s.PoolSource {
						s.PoolSource, changed = true, true
					}
				}
			}
		}
		return true
	})
	return changed
}
