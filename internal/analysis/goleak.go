package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerGoleak requires every go statement in a simnet-clocked package
// to be provably joined before the spawning function returns. An unjoined
// goroutine is not merely a leak here: it keeps running after the virtual
// clock instant that spawned it, so its side effects land at a
// scheduler-dependent real time instead of a deterministic virtual one —
// exactly the class of bug the 100-seed replay suites cannot localize.
//
// Join evidence, established intra-procedurally:
//
//   - a sync.WaitGroup the spawned closure calls Done() on, with a
//     matching Wait() in the spawning function;
//   - a channel the closure sends to or closes, with a matching receive
//     (<-ch, or range ch) in the spawning function;
//   - a simnet.Promise the closure resolves (Resolve/Fail/TryResolve/
//     TryFail), with a matching Wait/WaitTimeout in the spawning function.
//
// "On every path" is approximated structurally: the join must not sit
// under a conditional (if/switch/select/case, or a loop that may run zero
// times) that the go statement itself is outside of — formally, the
// join's conditional ancestry must be a subset of the go statement's.
// Deferred joins count regardless of lexical position (defers run on
// every return path) under the same ancestry rule. `go task()` on a local
// variable bound once to a function literal (the shape that lets several
// workers share one closure) is read as a spawn of that literal. Spawns of
// any other function value (`go fn()`) carry no visible join contract and
// are flagged; genuinely detached workers (a process-wide pool) take a
// justified //gillis:allow.
var AnalyzerGoleak = &Analyzer{
	Name: "goleak",
	Doc: "requires go statements in simnet-clocked packages to be joined " +
		"before return via simnet.Promise, sync.WaitGroup, or a channel " +
		"receive on every path; an unjoined goroutine outlives its virtual " +
		"clock instant and breaks replay determinism",
	Run: runGoleak,
}

// joinKind classifies a synchronization object the spawned goroutine
// signals through.
type joinKind int

const (
	joinWaitGroup joinKind = iota
	joinChannel
	joinPromise
)

// spawnSignals is the set of synchronization objects a go statement's
// closure signals completion through, keyed by the root object of the
// expression (wg in wg.Done(), ch in ch <- v, pr in pr.Resolve(x)).
type spawnSignals struct {
	objs map[types.Object]joinKind
	// opaque is true when the go statement spawns no visible function
	// literal (go fn() on a parameter, go m.run()): the goroutine's body is
	// out of reach and no join contract can be established here.
	opaque bool
}

func runGoleak(pass *Pass) {
	var match string
	for _, p := range clockedPkgs {
		if hasPathPrefix(pass.Pkg.Path(), p) {
			match = p
			break
		}
	}
	if match == "" {
		return
	}
	for _, f := range pass.Files {
		// Each function body — declaration or literal — is its own join
		// scope: a goroutine spawned inside a closure must be joined by
		// that closure.
		scopes := funcScopes(f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			scope := innermostScope(scopes, g)
			if scope == nil {
				return true
			}
			checkGoStmt(pass, scope, g)
			return true
		})
	}
}

// funcScopes collects every function body in the file.
func funcScopes(f *ast.File) []*ast.BlockStmt {
	var scopes []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				scopes = append(scopes, n.Body)
			}
		case *ast.FuncLit:
			scopes = append(scopes, n.Body)
		}
		return true
	})
	return scopes
}

// innermostScope returns the smallest function body containing n.
func innermostScope(scopes []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, s := range scopes {
		if s.Pos() <= n.Pos() && n.End() <= s.End() {
			if best == nil || s.Pos() > best.Pos() {
				best = s
			}
		}
	}
	return best
}

// checkGoStmt verifies one go statement is joined within its scope and
// reports when it is not.
func checkGoStmt(pass *Pass, scope *ast.BlockStmt, g *ast.GoStmt) {
	sig := collectSpawnSignals(pass, scope, g.Call)
	if sig.opaque {
		pass.Reportf(g.Pos(),
			"goroutine spawns an opaque function value, which cannot be proven joined before return; spawn a closure that signals a simnet.Promise, sync.WaitGroup, or channel, and join it on every path")
		return
	}
	if len(sig.objs) == 0 {
		pass.Reportf(g.Pos(),
			"goroutine signals no join primitive; make the closure resolve a simnet.Promise, call (*sync.WaitGroup).Done, or send on a channel, and join it before return")
		return
	}
	goAnc := condAncestors(scope, g)
	joined := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if joined || n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if n == g {
				return false
			}
		case *ast.DeferStmt:
			// Deferred joins run on every return path; lexical position
			// relative to the go statement does not matter, conditional
			// registration does.
			if hasJoin(pass, n, sig) && ancestrySubset(condAncestors(scope, n), goAnc) {
				joined = true
			}
			return false
		case *ast.FuncLit:
			// A join inside a non-deferred nested closure proves nothing:
			// the closure may never run in this scope.
			return false
		default:
			if isJoinNode(pass, n, sig) && n.Pos() > g.End() && ancestrySubset(condAncestors(scope, n), goAnc) {
				joined = true
				return false
			}
		}
		return true
	})
	if !joined {
		pass.Reportf(g.Pos(),
			"goroutine is not provably joined before return (no matching simnet.Promise Wait, sync.WaitGroup Wait, or channel receive on every path); an unjoined goroutine outlives its virtual-clock instant and breaks replay determinism")
	}
}

// collectSpawnSignals inspects the spawned call for function literals —
// or, for `go task()`, the literal the local task is bound to — and records
// every synchronization object their bodies signal through.
func collectSpawnSignals(pass *Pass, scope *ast.BlockStmt, call *ast.CallExpr) spawnSignals {
	sig := spawnSignals{objs: make(map[types.Object]joinKind), opaque: true}
	var lits []*ast.FuncLit
	ast.Inspect(call, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	if id, ok := call.Fun.(*ast.Ident); ok && len(lits) == 0 {
		if lit := boundFuncLit(pass, scope, id); lit != nil {
			lits = append(lits, lit)
		}
	}
	for _, lit := range lits {
		sig.opaque = false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SendStmt:
				if obj := rootObj(pass, m.Chan); obj != nil {
					sig.objs[obj] = joinChannel
				}
			case *ast.CallExpr:
				if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "close" && len(m.Args) == 1 {
					if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
						if obj := rootObj(pass, m.Args[0]); obj != nil {
							sig.objs[obj] = joinChannel
						}
					}
					return true
				}
				sel, ok := m.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv := recvType(pass, sel)
				switch {
				case sel.Sel.Name == "Done" && isNamedType(recv, "sync", "WaitGroup"):
					if obj := rootObj(pass, sel.X); obj != nil {
						sig.objs[obj] = joinWaitGroup
					}
				case promiseResolvers[sel.Sel.Name] && isNamedType(recv, "gillis/internal/simnet", "Promise"):
					if obj := rootObj(pass, sel.X); obj != nil {
						sig.objs[obj] = joinPromise
					}
				}
			}
			return true
		})
	}
	return sig
}

// boundFuncLit returns the function literal the variable id names, when
// scope declares it as `id := func() {...}` and never assigns it again or
// takes its address; otherwise nil.
func boundFuncLit(pass *Pass, scope *ast.BlockStmt, id *ast.Ident) *ast.FuncLit {
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	var lit *ast.FuncLit
	rebound := false
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				l, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if pass.Info.Defs[l] == obj && len(n.Rhs) == len(n.Lhs) {
					lit, _ = n.Rhs[i].(*ast.FuncLit)
				} else if pass.Info.Uses[l] == obj {
					rebound = true
				}
			}
		case *ast.UnaryExpr:
			if x, ok := n.X.(*ast.Ident); ok && n.Op == token.AND && pass.Info.Uses[x] == obj {
				rebound = true
			}
		}
		return true
	})
	if rebound {
		return nil
	}
	return lit
}

// promiseResolvers are the simnet.Promise methods that complete a promise.
var promiseResolvers = map[string]bool{
	"Resolve": true, "Fail": true, "TryResolve": true, "TryFail": true,
}

// hasJoin reports whether any node under root is a join on one of the
// signalled objects.
func hasJoin(pass *Pass, root ast.Node, sig spawnSignals) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if isJoinNode(pass, n, sig) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isJoinNode reports whether n joins one of the signalled objects: a
// WaitGroup Wait, a Promise Wait/WaitTimeout, a channel receive, or a
// range over the channel.
func isJoinNode(pass *Pass, n ast.Node, sig spawnSignals) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		obj := rootObj(pass, sel.X)
		if obj == nil {
			return false
		}
		kind, tracked := sig.objs[obj]
		if !tracked {
			return false
		}
		recv := recvType(pass, sel)
		switch kind {
		case joinWaitGroup:
			return sel.Sel.Name == "Wait" && isNamedType(recv, "sync", "WaitGroup")
		case joinPromise:
			return (sel.Sel.Name == "Wait" || sel.Sel.Name == "WaitTimeout") &&
				isNamedType(recv, "gillis/internal/simnet", "Promise")
		}
	case *ast.UnaryExpr:
		if n.Op != token.ARROW {
			return false
		}
		obj := rootObj(pass, n.X)
		return obj != nil && sig.objs[obj] == joinChannel
	case *ast.RangeStmt:
		tv, ok := pass.Info.Types[n.X]
		if !ok {
			return false
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return false
		}
		obj := rootObj(pass, n.X)
		return obj != nil && sig.objs[obj] == joinChannel
	}
	return false
}

// rootObj resolves the root identifier of e to its object.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return pass.Info.ObjectOf(id)
}

// recvType returns the receiver type of a method selector (pointers
// stripped), or nil when sel is not a method selection.
func recvType(pass *Pass, sel *ast.SelectorExpr) types.Type {
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// isNamedType reports whether t is the named type pkgPath.name, ignoring
// type arguments (simnet.Promise is generic).
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// condAncestors returns the conditional constructs (if/switch/select,
// case/comm clauses, and loops) enclosing target within scope, outermost
// first.
func condAncestors(scope *ast.BlockStmt, target ast.Node) []ast.Node {
	var stack []ast.Node
	var result []ast.Node
	ast.Inspect(scope, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target && result == nil {
			// The target itself is excluded: a range-over-channel join is
			// not conditional on its own loop.
			for _, a := range stack[:len(stack)-1] {
				switch a.(type) {
				case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
					*ast.SelectStmt, *ast.ForStmt, *ast.RangeStmt,
					*ast.CaseClause, *ast.CommClause:
					result = append(result, a)
				}
			}
		}
		return true
	})
	return result
}

// ancestrySubset reports whether every node in sub also appears in super.
func ancestrySubset(sub, super []ast.Node) bool {
	for _, s := range sub {
		found := false
		for _, p := range super {
			if s == p {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
