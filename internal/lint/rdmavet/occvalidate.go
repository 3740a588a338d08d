package rdmavet

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/namdb/rdmatree/internal/lint"
)

// DefaultOCCValidateScope covers the packages consuming raw page copies.
var DefaultOCCValidateScope = Scope{Deny: protocolPackages}

// occvalidate enforces the optimistic-read discipline (Listing 2 of the
// paper): a page copy fetched from remote memory is a *candidate* snapshot
// until its version word is revalidated — re-read after the copy, unlocked,
// and equal to the copy's own first word. A copy that escapes the reading
// function before that check can be torn (a concurrent writer was mid-WRITE)
// and nothing at runtime will ever notice: the remote CPU is passive and the
// bytes look fine.
//
// The analysis taints the destination buffer of every raw read verb
// (Mem.ReadWords / Mem.ReadPages, Endpoint.Read / Endpoint.ReadMulti,
// AsyncEndpoint.PostRead) and tracks the taint through the lint CFG. Taint
// is cleared on branch edges where validation is known to hold:
//
//   - the ok-true edge of Mem.ReadValidated's ok result (the fused
//     read+validate verb);
//   - the equality-holds edge of any ==/!= comparison against
//     layout.BufVersion(buf) — directly or through a variable bound to it
//     (v := layout.BufVersion(buf); ... vers[i] != v);
//   - the ok-true edge of a same-package validator helper: a function whose
//     last result is bool and whose body compares layout.BufVersion of a
//     parameter (btree's validated()).
//
// A diagnostic fires where still-tainted data escapes: returned (in a
// non-error, non-scalar position), written back to remote memory
// (Write/WriteWords/PostWrite), stored into a struct field or package
// variable, or sent on a channel. Purely local inspection of a tainted copy
// is legal — that is exactly how the validation code itself must work.
//
// Taint lives on identifier objects; buffers reached only through fields or
// index expressions are not tracked (the EndpointMem scratch-buffer pattern
// validates internally and stays clean by construction).
func NewOCCValidate(scope Scope) *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "occvalidate",
		Doc:  "a raw page copy must be version-validated before it escapes",
	}
	a.Run = func(pass *lint.Pass) error {
		if !scope.Match(pass.RelPath()) {
			return nil
		}
		memIf, epIf := memIface(pass), endpointIface(pass)
		asyncIf := pass.Interface(rdmaPath(pass), "AsyncEndpoint")
		if memIf == nil && epIf == nil {
			return nil
		}
		op := &occPass{pass: pass, memIf: memIf, epIf: epIf, asyncIf: asyncIf}
		op.findValidators()
		for _, r := range funcRegions(pass) {
			op.checkRegion(r)
		}
		return nil
	}
	return a
}

type occPass struct {
	pass       *lint.Pass
	memIf      *types.Interface
	epIf       *types.Interface
	asyncIf    *types.Interface
	validators map[*types.Func]bool
}

// findValidators collects same-package helpers that encapsulate the version
// check: last result bool, body comparing layout.BufVersion(...) with ==/!=.
func (op *occPass) findValidators() {
	op.validators = map[*types.Func]bool{}
	for _, f := range op.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := op.pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			res := sig.Results()
			if res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), types.Typ[types.Bool]) {
				continue
			}
			compares := false
			inspectShallow(fd.Body, func(n ast.Node) bool {
				be, isBin := n.(*ast.BinaryExpr)
				if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if _, isBV := layoutCall(op.pass, be.X, "BufVersion"); isBV {
					compares = true
				}
				if _, isBV := layoutCall(op.pass, be.Y, "BufVersion"); isBV {
					compares = true
				}
				return true
			})
			if compares {
				op.validators[fn] = true
			}
		}
	}
}

// occFact is the taint state: tainted buffer objects with the verb that
// produced them, ok-variables guarding sets of buffers, and version
// variables bound to layout.BufVersion(buffer).
type occFact struct {
	tainted map[types.Object]string         // buffer -> source verb name
	guards  map[types.Object][]types.Object // ok var -> buffers it validates
	vers    map[types.Object]types.Object   // version var -> buffer sampled
}

func newOccFact() occFact {
	return occFact{
		tainted: map[types.Object]string{},
		guards:  map[types.Object][]types.Object{},
		vers:    map[types.Object]types.Object{},
	}
}

func (f occFact) clone() occFact {
	out := newOccFact()
	for k, v := range f.tainted {
		out.tainted[k] = v
	}
	for k, v := range f.guards {
		out.guards[k] = v
	}
	for k, v := range f.vers {
		out.vers[k] = v
	}
	return out
}

type occAnalysis struct {
	op     *occPass
	report func(pos ast.Node, source, how string)
}

func (oa *occAnalysis) Entry() any { return newOccFact() }

func (oa *occAnalysis) Equal(a, b any) bool {
	af, bf := a.(occFact), b.(occFact)
	if len(af.tainted) != len(bf.tainted) || len(af.guards) != len(bf.guards) || len(af.vers) != len(bf.vers) {
		return false
	}
	for k, v := range af.tainted {
		if bf.tainted[k] != v {
			return false
		}
	}
	for k, v := range af.vers {
		if bf.vers[k] != v {
			return false
		}
	}
	for k, v := range af.guards {
		bv, ok := bf.guards[k]
		if !ok || len(bv) != len(v) {
			return false
		}
		for i := range v {
			if v[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// Join is a may-taint union: tainted on either path means unvalidated on
// some path, which is exactly what must not escape.
func (oa *occAnalysis) Join(a, b any) any {
	af, bf := a.(occFact), b.(occFact)
	out := af.clone()
	for k, v := range bf.tainted {
		if _, ok := out.tainted[k]; !ok {
			out.tainted[k] = v
		}
	}
	for k, v := range bf.guards {
		if _, ok := out.guards[k]; !ok {
			out.guards[k] = v
		}
	}
	for k, v := range bf.vers {
		if _, ok := out.vers[k]; !ok {
			out.vers[k] = v
		}
	}
	return out
}

// taintedRootOf returns the tainted object that e mentions, if any.
func (oa *occAnalysis) taintedRootOf(f occFact, e ast.Expr) (types.Object, string, bool) {
	for obj, src := range f.tainted {
		if refersTo(oa.op.pass, e, obj) {
			return obj, src, true
		}
	}
	return nil, "", false
}

// isEscapeCapable reports whether a returned expression of this type can
// carry page data out of the function: errors and scalar values cannot.
func (oa *occAnalysis) isEscapeCapable(e ast.Expr) bool {
	t := oa.op.pass.TypeOf(e)
	if t == nil {
		return false
	}
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return false
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

func (oa *occAnalysis) Transfer(fact any, n ast.Node) any {
	op := oa.op
	out := fact.(occFact)
	cloned := false
	touch := func() {
		if !cloned {
			out, cloned = out.clone(), true
		}
	}

	// Escapes and raw-read sources anywhere in the node.
	inspectShallow(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, recvType, name, isM := methodCall(op.pass, call)
		if !isM {
			return true
		}
		switch {
		case (name == "ReadWords" || name == "ReadPages") && implementsIface(recvType, op.memIf),
			(name == "Read" || name == "ReadMulti") && implementsIface(recvType, op.epIf),
			name == "PostRead" && implementsIface(recvType, op.asyncIf):
			if len(call.Args) >= 2 {
				if obj := identUse(op.pass, call.Args[1]); obj != nil {
					touch()
					out.tainted[obj] = name
				}
			}
		case (name == "WriteWords" && implementsIface(recvType, op.memIf)) ||
			(name == "Write" && implementsIface(recvType, op.epIf)) ||
			(name == "PostWrite" && implementsIface(recvType, op.asyncIf)):
			if len(call.Args) >= 2 {
				if _, src, hit := oa.taintedRootOf(out, call.Args[1]); hit && oa.report != nil {
					oa.report(call, src, "written back to remote memory")
				}
			}
		}
		return true
	})

	switch n := n.(type) {
	case *ast.ReturnStmt:
		if oa.report != nil {
			for _, res := range n.Results {
				if !oa.isEscapeCapable(res) {
					continue
				}
				if _, src, hit := oa.taintedRootOf(out, res); hit {
					oa.report(n, src, "returned to the caller")
				}
			}
		}
	case *ast.SendStmt:
		if oa.report != nil {
			if _, src, hit := oa.taintedRootOf(out, n.Value); hit {
				oa.report(n, src, "sent on a channel")
			}
		}
	case *ast.AssignStmt:
		oa.transferAssign(&out, touch, n)
	}
	return out
}

// transferAssign handles taint introduction (ReadValidated, validator
// helpers), propagation, clearing and field-store escapes.
func (oa *occAnalysis) transferAssign(out *occFact, touch func(), n *ast.AssignStmt) {
	op := oa.op

	// Single-call RHS: bind validation guards.
	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			_, recvType, name, isM := methodCall(op.pass, call)
			if isM && name == "ReadValidated" && implementsIface(recvType, op.memIf) && len(call.Args) >= 2 && len(n.Lhs) == 3 {
				// v, ok, err := m.ReadValidated(p, buf): buf is tainted, ok
				// guards it, v is its version sample.
				if buf := identUse(op.pass, call.Args[1]); buf != nil {
					touch()
					(*out).tainted[buf] = name
					if okObj := identDefOrUse(op.pass, n.Lhs[1]); okObj != nil {
						(*out).guards[okObj] = []types.Object{buf}
					}
					if vObj := identDefOrUse(op.pass, n.Lhs[0]); vObj != nil {
						(*out).vers[vObj] = buf
					}
				}
				return
			}
			if fn := lint.StaticCallee(op.pass.Info, call); fn != nil && op.validators[fn] && len(n.Lhs) > 0 {
				// ver, ok := validated(v, buf): ok guards every tainted
				// buffer mentioned by the arguments (directly or via a bound
				// version variable).
				var guarded []types.Object
				for _, arg := range call.Args {
					if obj, _, hit := oa.taintedRootOf(*out, arg); hit {
						guarded = append(guarded, obj)
					}
					if vObj := identUse(op.pass, arg); vObj != nil {
						if buf, ok := (*out).vers[vObj]; ok {
							guarded = append(guarded, buf)
						}
					}
				}
				if okObj := identDefOrUse(op.pass, n.Lhs[len(n.Lhs)-1]); okObj != nil && len(guarded) > 0 {
					touch()
					(*out).guards[okObj] = guarded
				}
				return
			}
		}
	}

	// Element-wise assignments: propagation, version binding, clearing.
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		rhs := n.Rhs[i]

		// v := layout.BufVersion(buf) binds v as buf's version sample.
		if bv, isBV := layoutCall(op.pass, rhs, "BufVersion"); isBV && len(bv.Args) == 1 {
			if buf, _, hit := oa.taintedRootOf(*out, bv.Args[0]); hit {
				if vObj := identDefOrUse(op.pass, lhs); vObj != nil {
					touch()
					(*out).vers[vObj] = buf
				}
				continue
			}
		}

		_, src, rhsTainted := oa.taintedRootOf(*out, rhs)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := identDefOrUse(op.pass, l)
			if obj == nil {
				continue
			}
			if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				// Package-level variable: outlives the function.
				if rhsTainted && oa.report != nil {
					oa.report(n, src, "stored into a field or package variable")
				}
				continue
			}
			if rhsTainted {
				// Taint flows into aliasing locals (slices, wrapped nodes)
				// but not into scalars extracted from the copy.
				if _, basic := obj.Type().Underlying().(*types.Basic); !basic {
					touch()
					(*out).tainted[obj] = src
				}
			} else if _, was := (*out).tainted[obj]; was {
				touch()
				delete((*out).tainted, obj)
			}
		case *ast.SelectorExpr:
			// Field of a struct (or a qualified package variable): the copy
			// outlives the frame that was supposed to validate it.
			if rhsTainted && oa.report != nil {
				oa.report(n, src, "stored into a field or package variable")
			}
		}
	}
}

// EdgeTransfer clears taint on edges where validation is known to hold.
func (oa *occAnalysis) EdgeTransfer(fact any, cond ast.Expr, neg bool) any {
	op := oa.op
	f := fact.(occFact)
	out, cloned := f, false
	sanitize := func(buf types.Object) {
		if _, ok := out.tainted[buf]; !ok {
			return
		}
		if !cloned {
			out, cloned = out.clone(), true
		}
		delete(out.tainted, buf)
	}

	switch c := ast.Unparen(cond).(type) {
	case *ast.Ident:
		// ok-true edge of a guard variable.
		if neg {
			return out
		}
		if obj := identUse(op.pass, c); obj != nil {
			for _, buf := range f.guards[obj] {
				sanitize(buf)
			}
		}
	case *ast.UnaryExpr:
		// !ok: the false edge of the negation is the ok-true edge.
		if c.Op != token.NOT || !neg {
			return out
		}
		if obj := identUse(op.pass, c.X); obj != nil {
			for _, buf := range f.guards[obj] {
				sanitize(buf)
			}
		}
	case *ast.BinaryExpr:
		if c.Op != token.EQL && c.Op != token.NEQ {
			return out
		}
		equalityHolds := (c.Op == token.EQL) != neg
		if !equalityHolds {
			return out
		}
		// Comparison against BufVersion(buf) or a bound version variable.
		for _, side := range []ast.Expr{c.X, c.Y} {
			if bv, isBV := layoutCall(op.pass, side, "BufVersion"); isBV && len(bv.Args) == 1 {
				if buf, _, hit := oa.taintedRootOf(f, bv.Args[0]); hit {
					sanitize(buf)
				}
			}
			if vObj := identUse(op.pass, side); vObj != nil {
				if buf, ok := f.vers[vObj]; ok {
					sanitize(buf)
				}
			}
		}
	}
	return out
}

// checkRegion solves the taint analysis over one function and replays it
// with reporting enabled.
func (op *occPass) checkRegion(r funcRegion) {
	oa := &occAnalysis{op: op}
	g := lint.BuildCFG(r.body)
	in, ok := lint.SolveForward(g, oa)
	if !ok {
		return
	}
	oa.report = func(at ast.Node, source, how string) {
		op.pass.Reportf(at.Pos(),
			"page copy from %s is %s without version validation: a concurrent writer can tear it and nothing at runtime will notice; check layout.BufVersion/IsLocked (or use ReadValidated's ok) first",
			source, how)
	}
	for _, b := range g.Blocks {
		fact, reached := in[b]
		if !reached {
			continue
		}
		for _, n := range b.Nodes {
			fact = oa.Transfer(fact, n)
		}
	}
}
