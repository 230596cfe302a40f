// Package mergecompat checks the call sites of the mergeable-summaries
// merge (PODS 2012): S(D1, ε) ⊎ S(D2, ε) is only defined when both
// operands carry the same error parameter, and a Merge says so by
// returning an error. No call site may drop that error — a silently
// failed merge leaves the aggregate claiming a guarantee it does not
// have. (That each Merge checks its operand before it mutates the
// receiver is a test's job: TestIncompatibleMergeLeavesReceiver.)
package mergecompat

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the mergecompat pass.
var Analyzer = &analysis.Analyzer{
	Name: "mergecompat",
	Doc: `check that callers keep the error a merge returns

Any statement-level call of a Merge or MergeLowError method with an
error result whose error is discarded (expression statement, go/defer,
or assignment to blank identifiers only) is reported.`,
	Run: run,
}

// mergeNames are the method names covered by the contract.
var mergeNames = map[string]bool{"Merge": true, "MergeLowError": true}

// run reports every dropped merge error.
func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call := mergeCall(pass, n.X); call != nil {
					pass.Reportf(call.Pos(), "result of %s is dropped: a failed merge voids the summary's guarantee; handle the error", callName(call))
				}
			case *ast.GoStmt:
				if call := mergeCall(pass, n.Call); call != nil {
					pass.Reportf(call.Pos(), "result of %s is dropped by go statement", callName(call))
				}
			case *ast.DeferStmt:
				if call := mergeCall(pass, n.Call); call != nil {
					pass.Reportf(call.Pos(), "result of %s is dropped by defer statement", callName(call))
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call := mergeCall(pass, n.Rhs[0])
				if call == nil {
					return true
				}
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				pass.Reportf(call.Pos(), "result of %s is assigned to the blank identifier; a failed merge voids the summary's guarantee", callName(call))
			}
			return true
		})
	}
	return nil
}

// mergeCall returns e as a *ast.CallExpr if it is a call of a
// Merge/MergeLowError method whose static result type is error.
func mergeCall(pass *analysis.Pass, e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mergeNames[sel.Sel.Name] {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil || !isErrorType(tv.Type) {
		return nil
	}
	return call
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "merge"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
