package rdmavet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/namdb/rdmatree/internal/lint"
)

// DefaultLockPairedScope covers the packages executing the OCC write
// protocol.
var DefaultLockPairedScope = Scope{Deny: protocolPackages}

// lockpaired is a flow-sensitive check of the lock-coupling discipline
// (Listings 3-4 of the paper): a page lock is acquired by CASing the
// version word to its locked image — CAS(p, v, layout.WithLock(v)) — and
// MUST be released on every path that gives up on the operation, by one of
//
//   - FetchAdd on the version word (unlock-and-bump, publishes a new body),
//   - CAS(p, layout.WithLock(pre), pre) (restore, nothing was published),
//   - a same-package helper that transitively performs one of the above
//     (unlockBump / abortUnlock / unlockNoChange), found by call summaries.
//
// Nothing at runtime catches a leaked lock: the remote CPU is passive, so a
// page whose lock bit is left set blocks every future writer and spins every
// reader until the spin budget aborts them. The classic leak is an
// error-return between acquire and release — exactly what a flow-insensitive
// check cannot see.
//
// The analysis runs per function over the lint CFG. Lock identity is the
// source text of the pointer expression (types.ExprString), which is exact
// for the repository's style of naming page pointers (p, aPtr, leafPtr).
//
// Acquire forms tracked:
//
//   - the raw CAS above: the lock is conditional until the flow refines it —
//     the err != nil edge and the prev != old edge both kill it, their
//     complements confirm it;
//   - a call to a same-package *acquirer*: a function that, on its own
//     nil-error return, still holds a must-held lock (lockNodeForKey,
//     lockPtr). The lock's identity at the call site is the corresponding
//     result (when the acquirer returns the pointer) or argument (when it
//     locks exactly the pointer it was given); the assigned error variable
//     conditions it.
//
// Releases are matched by pointer text against any rdma.RemotePtr argument
// of the releasing call; a release whose pointer matches no tracked lock
// conservatively clears all of them (aliasing). A function value bound to a
// closure that releases a lock releases it when the value is called or
// passed to a call.
//
// Join semantics are MUST-held: a lock held on only one incoming path joins
// as held-but-not-must and is never reported. This is deliberately
// conservative — protocol loops correlate lock state with scalar flags
// across break joins (a lock walk's found index), and a may-analysis would
// flag their error returns. The price is a documented miss:
// "if cond { unlock() }; return err" is not reported.
//
// Diagnostics fire at return statements whose final result is not the nil
// literal (error paths and error passthroughs) while a must-held,
// unconditional lock remains. Nil-error returns holding a lock are the
// acquirer pattern and are legal; panic paths are exempt (the process is
// gone, tooling cannot help the cluster).
func NewLockPaired(scope Scope) *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "lockpaired",
		Doc:  "every acquired page lock must be released on all error-return paths",
	}
	a.Run = func(pass *lint.Pass) error {
		if !scope.Match(pass.RelPath()) {
			return nil
		}
		memIf, epIf := memIface(pass), endpointIface(pass)
		if memIf == nil && epIf == nil {
			return nil
		}
		lp := &lockPairedPass{pass: pass, memIf: memIf, epIf: epIf}

		// Releaser summaries: same-package functions that (transitively)
		// contain a release primitive.
		var files []*ast.File
		files = append(files, pass.Files...)
		lp.releasers = lint.Summarize(files, pass.Info, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			return ok && lp.isReleasePrimitive(call)
		})

		// Acquirer summaries need lock analysis, which needs acquirer
		// summaries: iterate to a fixpoint (the repository's helpers are one
		// level deep, so this converges immediately; the bound is a guard).
		lp.acquirers = make(map[*types.Func]acquirerInfo)
		regions := funcRegions(pass)
		for round := 0; round < 4; round++ {
			if !lp.discoverAcquirers(pass.Files) {
				break
			}
		}

		for _, r := range regions {
			lp.checkRegion(r)
		}
		return nil
	}
	return a
}

// acquirerInfo describes where a lock-acquiring function exposes the locked
// pointer: as result resultIdx (preferred), or as its own argument paramIdx.
type acquirerInfo struct {
	resultIdx int
	paramIdx  int
}

// lockState is the per-lock dataflow fact. A lock with pending objects is
// conditional: acquisition succeeded only if the error is nil (errObj) and
// the CAS returned the expected prior value (prevObj == oldStr).
type lockState struct {
	must    bool
	errObj  types.Object
	prevObj types.Object
	oldStr  string
}

func (s lockState) pending() bool { return s.errObj != nil || s.prevObj != nil }

type lockFact map[string]lockState

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

type lockPairedPass struct {
	pass      *lint.Pass
	memIf     *types.Interface
	epIf      *types.Interface
	releasers map[*types.Func]bool
	acquirers map[*types.Func]acquirerInfo
}

// verbIface reports whether t implements Mem or Endpoint (the two surfaces
// carrying the version-word verbs).
func (lp *lockPairedPass) verbIface(t types.Type) bool {
	return implementsIface(t, lp.memIf) || implementsIface(t, lp.epIf)
}

// isAcquirePrimitive matches CAS(p, v, layout.WithLock(v)) on a verb surface
// and returns the pointer and old-version expressions.
func (lp *lockPairedPass) isAcquirePrimitive(call *ast.CallExpr) (ptr, old ast.Expr, ok bool) {
	_, recvType, name, isM := methodCall(lp.pass, call)
	if !isM || (name != "CAS" && name != "CompareAndSwap") || len(call.Args) != 3 {
		return nil, nil, false
	}
	if !lp.verbIface(recvType) {
		return nil, nil, false
	}
	if _, isLock := layoutCall(lp.pass, call.Args[2], "WithLock"); !isLock {
		return nil, nil, false
	}
	return call.Args[0], call.Args[1], true
}

// isReleasePrimitive matches the two unlock verbs: FetchAdd on the version
// word, and CAS whose OLD image is the locked word (restore).
func (lp *lockPairedPass) isReleasePrimitive(call *ast.CallExpr) bool {
	_, recvType, name, isM := methodCall(lp.pass, call)
	if !isM || !lp.verbIface(recvType) {
		return false
	}
	switch name {
	case "FetchAdd":
		return len(call.Args) == 2
	case "CAS", "CompareAndSwap":
		if len(call.Args) != 3 {
			return false
		}
		_, isLock := layoutCall(lp.pass, call.Args[1], "WithLock")
		return isLock
	}
	return false
}

// isReleaseCall reports whether call releases a lock (primitive or
// summarized helper) and returns the candidate pointer expressions.
func (lp *lockPairedPass) isReleaseCall(call *ast.CallExpr) ([]ast.Expr, bool) {
	release := lp.isReleasePrimitive(call)
	if !release {
		if fn := lint.StaticCallee(lp.pass.Info, call); fn != nil && lp.releasers[fn] {
			release = true
		}
	}
	if !release {
		return nil, false
	}
	var ptrs []ast.Expr
	for _, arg := range call.Args {
		if isRemotePtr(lp.pass, lp.pass.TypeOf(arg)) {
			ptrs = append(ptrs, arg)
		}
	}
	return ptrs, true
}

// killMatching removes the locks released through the given pointer
// expressions. When none of them matches a tracked lock, every lock is
// cleared: the release went through an alias the text-based identity cannot
// see, and a stale must-held entry would be a false positive.
func killMatching(fact lockFact, ptrs []ast.Expr) lockFact {
	if len(fact) == 0 {
		return fact
	}
	out, cloned := fact, false
	for _, p := range ptrs {
		key := types.ExprString(ast.Unparen(p))
		if _, ok := out[key]; ok {
			if !cloned {
				out, cloned = out.clone(), true
			}
			delete(out, key)
		}
	}
	if !cloned {
		return lockFact{}
	}
	return out
}

// closureReleases maps function-value variables to the pointer-expression
// keys their bound closure releases (empty slice = releases something
// unidentifiable, treated as release-all).
type closureReleases map[types.Object][]string

// scanClosures finds `name := func(...) ... { ...release... }` bindings in
// body. Calling such a value — or passing it to a call — counts as the
// release, since the callee may invoke it.
func (lp *lockPairedPass) scanClosures(body *ast.BlockStmt) closureReleases {
	out := closureReleases{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			obj := identDefOrUse(lp.pass, assign.Lhs[i])
			if obj == nil {
				continue
			}
			var keys []string
			releases := false
			inspectShallow(lit.Body, func(c ast.Node) bool {
				call, isCall := c.(*ast.CallExpr)
				if !isCall {
					return true
				}
				if ptrs, ok := lp.isReleaseCall(call); ok {
					releases = true
					for _, p := range ptrs {
						keys = append(keys, types.ExprString(ast.Unparen(p)))
					}
				}
				return true
			})
			if releases {
				out[obj] = keys
			}
		}
		return true
	})
	return out
}

// lockAnalysis is the FlowAnalysis over one function body.
type lockAnalysis struct {
	lp       *lockPairedPass
	closures closureReleases
	// report, when set, receives (fact before the check, return statement);
	// nil while solving.
	report func(fact lockFact, ret *ast.ReturnStmt)
}

func (la *lockAnalysis) Entry() any { return lockFact{} }

func (la *lockAnalysis) Equal(a, b any) bool {
	am, bm := a.(lockFact), b.(lockFact)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	return true
}

// Join implements must-held semantics: a lock missing on one side survives
// with must=false, and disagreeing pending state degrades the same way (the
// lock can still be released, never reported).
func (la *lockAnalysis) Join(a, b any) any {
	am, bm := a.(lockFact), b.(lockFact)
	out := make(lockFact, len(am)+len(bm))
	for k, av := range am {
		bv, ok := bm[k]
		switch {
		case !ok:
			av.must = false
			out[k] = av
		case av == bv:
			out[k] = av
		default:
			out[k] = lockState{must: false}
		}
	}
	for k, bv := range bm {
		if _, ok := am[k]; !ok {
			bv.must = false
			out[k] = bv
		}
	}
	return out
}

func (la *lockAnalysis) Transfer(fact any, n ast.Node) any {
	lp := la.lp
	out := fact.(lockFact)

	// 1. Releases anywhere in the node (statement, init clause, condition,
	// deferred call — defers release "immediately", which is sound for a
	// must-release property).
	inspectShallow(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ptrs, isRel := lp.isReleaseCall(call); isRel {
			out = killMatching(out, ptrs)
			return true
		}
		// A bound releasing closure, called directly or handed to a call.
		if obj := identUse(lp.pass, call.Fun); obj != nil {
			if keys, ok := la.closures[obj]; ok {
				out = killByKeys(out, keys)
			}
		}
		for _, arg := range call.Args {
			if obj := identUse(lp.pass, arg); obj != nil {
				if keys, ok := la.closures[obj]; ok {
					out = killByKeys(out, keys)
				}
			}
		}
		return true
	})

	ret, isReturn := n.(*ast.ReturnStmt)
	if isReturn && la.report != nil {
		la.report(out, ret)
	}

	assign, isAssign := n.(*ast.AssignStmt)
	if !isAssign {
		return out
	}

	// 2. Reassignment invalidates: a pending error/prev variable that is
	// overwritten can no longer refine the lock, and a pointer variable that
	// is overwritten no longer names it. Acquires below re-establish state.
	cloned := false
	for _, lhs := range assign.Lhs {
		obj := identDefOrUse(lp.pass, lhs)
		key := types.ExprString(ast.Unparen(lhs))
		for k, ls := range out {
			demote := k == key
			if obj != nil && (ls.errObj == obj || ls.prevObj == obj) {
				demote = true
			}
			if demote {
				if !cloned {
					out, cloned = out.clone(), true
				}
				out[k] = lockState{must: false}
			}
		}
	}

	// 3. Acquires: single-call RHS only (the repository's style; a CAS in a
	// multi-value context has no checkable prev/err binding anyway).
	if len(assign.Rhs) != 1 {
		return out
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return out
	}
	if ptrE, oldE, isAcq := lp.isAcquirePrimitive(call); isAcq {
		ls := lockState{must: true, oldStr: types.ExprString(ast.Unparen(oldE))}
		if len(assign.Lhs) == 2 {
			ls.prevObj = identDefOrUse(lp.pass, assign.Lhs[0])
			ls.errObj = identDefOrUse(lp.pass, assign.Lhs[1])
		}
		out = out.clone()
		out[types.ExprString(ast.Unparen(ptrE))] = ls
		return out
	}
	if fn := lint.StaticCallee(lp.pass.Info, call); fn != nil {
		if info, isAcq := lp.acquirers[fn]; isAcq {
			var keyExpr ast.Expr
			if info.resultIdx >= 0 && info.resultIdx < len(assign.Lhs) {
				keyExpr = assign.Lhs[info.resultIdx]
			} else if info.paramIdx >= 0 && info.paramIdx < len(call.Args) {
				keyExpr = call.Args[info.paramIdx]
			}
			if keyExpr == nil || types.ExprString(ast.Unparen(keyExpr)) == "_" {
				return out
			}
			ls := lockState{must: true}
			if n := len(assign.Lhs); n > 0 {
				ls.errObj = identDefOrUse(lp.pass, assign.Lhs[n-1])
			}
			out = out.clone()
			out[types.ExprString(ast.Unparen(keyExpr))] = ls
		}
	}
	return out
}

func killByKeys(fact lockFact, keys []string) lockFact {
	if len(fact) == 0 {
		return fact
	}
	out, cloned := fact, false
	for _, k := range keys {
		if _, ok := out[k]; ok {
			if !cloned {
				out, cloned = out.clone(), true
			}
			delete(out, k)
		}
	}
	if !cloned {
		return lockFact{}
	}
	return out
}

// EdgeTransfer refines conditional locks along branch edges:
// the err != nil edge and the prev != old edge kill the acquisition (the
// verb failed / the CAS lost), their complements confirm it.
func (la *lockAnalysis) EdgeTransfer(fact any, cond ast.Expr, neg bool) any {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return fact
	}
	f := fact.(lockFact)
	// equalityHolds: on this edge, the two operands are known equal.
	equalityHolds := (be.Op == token.EQL) != neg
	out, cloned := f, false
	touch := func() {
		if !cloned {
			out, cloned = out.clone(), true
		}
	}

	// Error refinement: <errObj> ==/!= nil.
	var errSide ast.Expr
	if isNilExpr(la.lp.pass, be.Y) {
		errSide = be.X
	} else if isNilExpr(la.lp.pass, be.X) {
		errSide = be.Y
	}
	if errSide != nil {
		if obj := identUse(la.lp.pass, errSide); obj != nil {
			for k, ls := range f {
				if ls.errObj != obj {
					continue
				}
				touch()
				if equalityHolds { // err == nil: the verb executed
					ls.errObj = nil
					out[k] = ls
				} else { // err != nil: the verb never executed, no lock taken
					delete(out, k)
				}
			}
		}
		return out
	}

	// Prev refinement: <prevObj> ==/!= <old expression>.
	xs, ys := types.ExprString(ast.Unparen(be.X)), types.ExprString(ast.Unparen(be.Y))
	xo, yo := identUse(la.lp.pass, be.X), identUse(la.lp.pass, be.Y)
	for k, ls := range f {
		if ls.prevObj == nil {
			continue
		}
		hit := (xo == ls.prevObj && ys == ls.oldStr) || (yo == ls.prevObj && xs == ls.oldStr)
		if !hit {
			continue
		}
		touch()
		if equalityHolds { // prev == old: the CAS won
			ls.prevObj = nil
			out[k] = ls
		} else { // prev != old: another writer holds the lock
			delete(out, k)
		}
	}
	return out
}

// solveRegion builds the CFG and runs the lock analysis, returning block-in
// facts (nil when the solver gave up).
func (lp *lockPairedPass) solveRegion(r funcRegion, la *lockAnalysis) (*lint.CFG, map[*lint.Block]any) {
	g := lint.BuildCFG(r.body)
	in, ok := lint.SolveForward(g, la)
	if !ok {
		return nil, nil
	}
	return g, in
}

// replay folds the transfer function over each block from its solved in-fact
// so that la.report sees the exact fact at each return statement.
func replayBlocks(g *lint.CFG, in map[*lint.Block]any, la *lockAnalysis) {
	for _, b := range g.Blocks {
		fact, reached := in[b]
		if !reached {
			continue
		}
		for _, n := range b.Nodes {
			fact = la.Transfer(fact, n)
		}
	}
}

// discoverAcquirers runs the analysis over every function declaration and
// records those that still hold a must-held lock at a nil-error return.
// Reports true when the acquirer set grew.
func (lp *lockPairedPass) discoverAcquirers(files []*ast.File) bool {
	grew := false
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := lp.pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if _, known := lp.acquirers[fn]; known {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if !errorLastResult(sig) {
				continue
			}
			info, isAcq := lp.acquirerShape(fd, sig)
			if isAcq {
				lp.acquirers[fn] = info
				grew = true
			}
		}
	}
	return grew
}

// acquirerShape analyzes one declaration and, when a nil-error return leaves
// a must-held lock whose key is a parameter or returned pointer, reports the
// acquirer info.
func (lp *lockPairedPass) acquirerShape(fd *ast.FuncDecl, sig *types.Signature) (acquirerInfo, bool) {
	la := &lockAnalysis{lp: lp, closures: lp.scanClosures(fd.Body)}
	g, in := lp.solveRegion(funcRegion{name: fd.Name.Name, sig: sig, body: fd.Body}, la)
	if g == nil {
		return acquirerInfo{}, false
	}
	found := acquirerInfo{resultIdx: -1, paramIdx: -1}
	ok := false
	la.report = func(fact lockFact, ret *ast.ReturnStmt) {
		if len(ret.Results) == 0 || !isNilExpr(lp.pass, ret.Results[len(ret.Results)-1]) {
			return
		}
		for key, ls := range fact {
			if !ls.must || ls.pending() {
				continue
			}
			for i, res := range ret.Results {
				if types.ExprString(ast.Unparen(res)) == key && isRemotePtr(lp.pass, lp.pass.TypeOf(res)) {
					found.resultIdx = i
					ok = true
				}
			}
			params := sig.Params()
			for i := 0; i < params.Len(); i++ {
				if params.At(i).Name() == key && isRemotePtr(lp.pass, params.At(i).Type()) {
					if found.paramIdx < 0 {
						found.paramIdx = i
					}
					ok = true
				}
			}
		}
	}
	replayBlocks(g, in, la)
	return found, ok
}

// checkRegion reports leaked locks at the error returns of one function.
func (lp *lockPairedPass) checkRegion(r funcRegion) {
	if !errorLastResult(r.sig) {
		return
	}
	la := &lockAnalysis{lp: lp, closures: lp.scanClosures(r.body)}
	g, in := lp.solveRegion(r, la)
	if g == nil {
		return
	}
	la.report = func(fact lockFact, ret *ast.ReturnStmt) {
		if len(ret.Results) == 0 || isNilExpr(lp.pass, ret.Results[len(ret.Results)-1]) {
			return
		}
		var leaked []string
		for key, ls := range fact {
			if ls.must && !ls.pending() {
				leaked = append(leaked, key)
			}
		}
		if len(leaked) == 0 {
			return
		}
		lp.pass.Reportf(ret.Pos(),
			"page lock on %s is still held on this error-return path: every writer and reader of the page will spin until its budget aborts; release it (unlockBump / unlockNoChange / abortUnlock) before returning",
			strings.Join(sortedKeys(leaked), ", "))
	}
	replayBlocks(g, in, la)
}

func sortedKeys(ks []string) []string {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}
