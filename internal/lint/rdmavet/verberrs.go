package rdmavet

import (
	"go/ast"

	"github.com/namdb/rdmatree/internal/lint"
)

// endpointVerbs are the rdma.Endpoint methods whose error return reports
// transport failures (and, for Alloc, region exhaustion).
var endpointVerbs = map[string]bool{
	"Read":           true,
	"ReadMulti":      true,
	"Write":          true,
	"CompareAndSwap": true,
	"FetchAdd":       true,
	"Alloc":          true,
	"Free":           true,
	"Call":           true,
}

// memVerbs are the btree.Mem methods — the same verb surface one
// abstraction level up, used by all protocol code.
var memVerbs = map[string]bool{
	"ReadWords":     true,
	"ReadValidated": true,
	"WriteWords":    true,
	"LoadWord":      true,
	"CAS":           true,
	"FetchAdd":      true,
	"AllocPages":    true,
	"FreePage":      true,
	"ReadPages":     true,
	"WritePages":    true,
}

// NewVerbErrs builds the verberrs analyzer.
//
// Every verb can fail — a broken connection, an exhausted region, a
// transport shutdown — and on one-sided protocols a dropped error means the
// client continues against memory it never read or wrote, typically
// corrupting its traversal state far from the root cause. The analyzer
// flags any Endpoint verb or Mem operation whose error result is discarded:
// an expression statement, a `go`/`defer` of the call, or an assignment of
// the error position to `_`.
func NewVerbErrs() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "verberrs",
		Doc:  "no verb call (Endpoint or btree.Mem) may have its error discarded",
	}
	a.Run = func(pass *lint.Pass) error {
		epIface := endpointIface(pass)
		mIface := memIface(pass)
		walkStack(pass.Files, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			_, recvType, name, ok := methodCall(pass, call)
			if !ok {
				return
			}
			var kind string
			switch {
			case endpointVerbs[name] && implementsIface(recvType, epIface):
				kind = "Endpoint." + name
			case memVerbs[name] && implementsIface(recvType, mIface):
				kind = "Mem." + name
			default:
				return
			}
			if how := errDiscarded(parentOf(stack), call); how != "" {
				pass.Reportf(call.Pos(),
					"error of %s %s: verb failures must be handled or propagated (a dropped transport error lets the protocol run on against memory it never accessed)",
					kind, how)
			}
		})
		return nil
	}
	return a
}

// errDiscarded classifies how the call's error result is dropped; "" means
// it is not (visibly) dropped.
func errDiscarded(parent ast.Node, call *ast.CallExpr) string {
	switch p := parent.(type) {
	case *ast.ExprStmt:
		return "is discarded (call used as a statement)"
	case *ast.GoStmt:
		return "is discarded (verb launched with go)"
	case *ast.DeferStmt:
		return "is discarded (verb deferred)"
	case *ast.AssignStmt:
		if len(p.Rhs) != 1 || p.Rhs[0] == nil || ast.Unparen(p.Rhs[0]) != call {
			return ""
		}
		if last, ok := ast.Unparen(p.Lhs[len(p.Lhs)-1]).(*ast.Ident); ok && last.Name == "_" {
			return "is assigned to _"
		}
	case *ast.ValueSpec:
		if len(p.Values) == 1 && ast.Unparen(p.Values[0]) == call {
			if p.Names[len(p.Names)-1].Name == "_" {
				return "is assigned to _"
			}
		}
	}
	return ""
}
