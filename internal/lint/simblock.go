package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"wfsim/internal/lint/analysis"
)

// SimBlock forbids real concurrency and real blocking inside engine
// callbacks. The DES engine runs every event callback inline on the one
// goroutine driving Engine.Run: a callback that performs a raw channel
// operation, takes a sync lock, sleeps on the host clock, or does I/O
// does not "run concurrently" — it blocks the thread the entire simulation
// runs on, deadlocking or stalling every simulated activity. Inside a
// callback the only legitimate ways to wait are the engine's primitives
// (Cont.Wait, Server.Acquire, Link.Transfer), which park a continuation on
// virtual time.
//
// Roots are discovered, not declared: every call to Bind or Schedule on a
// value of a type named Engine marks its final argument — a continuation's
// step function or a scheduled callback, given as a function literal, a
// named function, a method value, or a variable/field traced to the
// function assigned into it (the bound-once stepFn pattern) — as a
// callback. Everything reachable from a callback over static calls (plus
// enclosed function literals) is checked. Additional callbacks can be
// declared with a //wfsimlint:callback doc-comment annotation.
//
// The package that defines the Engine itself is exempt: the substrate
// legitimately owns the machinery callbacks must never touch. Test files
// are exempt as usual, and a deliberate exception can be annotated
// //wfsimlint:allow simblock.
var SimBlock = &analysis.Analyzer{
	Name:      "simblock",
	Doc:       "forbids raw channel ops, sync primitives, host sleeps, and I/O inside engine callbacks reachable from Engine.Bind/Schedule",
	RunModule: runSimBlock,
}

func runSimBlock(pass *analysis.ModulePass) error {
	assigned := assignedFuncs(pass)
	roots, exempt := callbackRoots(pass, assigned)
	checked := analysis.Reachable(roots)
	for _, n := range pass.Graph.Nodes {
		if !checked[n] || exempt[n.Pkg] || pass.IsTestFile(n.Pos()) {
			continue
		}
		checkCallback(pass, n)
	}
	return nil
}

// callbackRoots finds engine callbacks (final arguments of Engine.Bind and
// Engine.Schedule calls, plus //wfsimlint:callback annotations) and the set
// of Engine-defining packages, which are exempt substrate.
func callbackRoots(pass *analysis.ModulePass, assigned map[string][]*analysis.FuncNode) (roots []*analysis.FuncNode, exempt map[*analysis.ModulePackage]bool) {
	exempt = make(map[*analysis.ModulePackage]bool)
	for _, n := range pass.Graph.Nodes {
		if n.Decl != nil && analysis.FuncAnnotation(n.Decl, "callback") {
			roots = append(roots, n)
		}
		info := n.Pkg.Info
		analysis.InspectOwn(n, func(nd ast.Node) {
			call, ok := nd.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			fn := analysis.StaticCallee(info, call)
			if fn == nil || (fn.Name() != "Bind" && fn.Name() != "Schedule") {
				return
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || namedTypeName(recv.Type()) != "Engine" {
				return
			}
			// The calling package is a client; the Engine's own package
			// is substrate.
			if enginePkg := pass.Graph.NodeOf(fn); enginePkg != nil {
				exempt[enginePkg.Pkg] = true
			}
			bodyArg := call.Args[len(call.Args)-1]
			roots = append(roots, resolveFuncExpr(pass, info, bodyArg, assigned)...)
		})
	}
	return roots, exempt
}

// namedTypeName returns the name of t's (pointer-dereferenced) named
// type, or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// assignedFuncs maps every variable or struct field (by declaration
// position, stable across duplicate type-checks) to the function nodes
// assigned into it anywhere in the module. This is what lets the rule
// see through the bound-once pattern:
//
//	a.stepFn = a.step           // setup
//	eng.Bind(&a.cont, a.stepFn)
func assignedFuncs(pass *analysis.ModulePass) map[string][]*analysis.FuncNode {
	assigned := make(map[string][]*analysis.FuncNode)
	record := func(info *types.Info, lhs, rhs ast.Expr) {
		target := lvalueObj(info, lhs)
		if target == nil {
			return
		}
		fns := directFuncExpr(pass, info, rhs)
		if len(fns) == 0 {
			return
		}
		key := pass.Fset.Position(target.Pos()).String()
		assigned[key] = append(assigned[key], fns...)
	}
	for _, n := range pass.Graph.Nodes {
		info := n.Pkg.Info
		analysis.InspectOwn(n, func(nd ast.Node) {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				for i := range nd.Lhs {
					if i < len(nd.Rhs) {
						record(info, nd.Lhs[i], nd.Rhs[i])
					}
				}
			case *ast.GenDecl:
				if nd.Tok != token.VAR {
					return
				}
				for _, spec := range nd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								record(info, name, vs.Values[i])
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range nd.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						record(info, kv.Key, kv.Value)
					}
				}
			}
		})
	}
	return assigned
}

// lvalueObj resolves an assignment target to its variable or field
// object.
func lvalueObj(info *types.Info, lhs ast.Expr) types.Object {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := objOf(info, l); obj != nil {
			return obj
		}
		// Composite-literal keys are fields, found in Uses.
		return info.Uses[l]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return objOf(info, l.Sel)
	}
	return nil
}

// directFuncExpr resolves an expression directly denoting a function:
// a literal, a named function, or a method value.
func directFuncExpr(pass *analysis.ModulePass, info *types.Info, expr ast.Expr) []*analysis.FuncNode {
	switch ex := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		if n := pass.Graph.ByLit[ex]; n != nil {
			return []*analysis.FuncNode{n}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[ex].(*types.Func); ok {
			if n := pass.Graph.NodeOf(fn); n != nil {
				return []*analysis.FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[ex]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if n := pass.Graph.NodeOf(fn); n != nil {
					return []*analysis.FuncNode{n}
				}
			}
		}
		if fn, ok := info.Uses[ex.Sel].(*types.Func); ok {
			if n := pass.Graph.NodeOf(fn); n != nil {
				return []*analysis.FuncNode{n}
			}
		}
	}
	return nil
}

// resolveFuncExpr resolves a Bind/Schedule callback argument: directly, or —
// for a variable or field — through every function assigned into it.
func resolveFuncExpr(pass *analysis.ModulePass, info *types.Info, expr ast.Expr, assigned map[string][]*analysis.FuncNode) []*analysis.FuncNode {
	if fns := directFuncExpr(pass, info, expr); len(fns) > 0 {
		return fns
	}
	if obj := lvalueObj(info, expr); obj != nil {
		return assigned[pass.Fset.Position(obj.Pos()).String()]
	}
	return nil
}

// checkCallback flags blocking constructs inside one checked function.
func checkCallback(pass *analysis.ModulePass, n *analysis.FuncNode) {
	info := n.Pkg.Info
	analysis.InspectOwn(n, func(nd ast.Node) {
		switch nd := nd.(type) {
		case *ast.SendStmt:
			pass.Reportf(nd.Arrow, "channel send inside an engine callback blocks the engine's single dispatch thread; sequence on virtual time with the engine's primitives instead")
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				pass.Reportf(nd.OpPos, "channel receive inside an engine callback blocks the engine's single dispatch thread; wait on virtual time with the engine's primitives instead")
			}
		case *ast.SelectStmt:
			pass.Reportf(nd.Select, "select inside an engine callback blocks the engine's single dispatch thread; simulated activities wait via the engine, not via channels")
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(nd.X).Underlying().(*types.Chan); ok {
				pass.Reportf(nd.For, "ranging over a channel inside an engine callback blocks the engine's single dispatch thread")
			}
		case *ast.GoStmt:
			pass.Reportf(nd.Go, "go statement inside an engine callback spawns a real goroutine outside the engine's control; start simulated work with a continuation (Engine.Bind, Cont.Start)")
		case *ast.CallExpr:
			checkCallbackCall(pass, info, nd)
		}
	})
}

func checkCallbackCall(pass *analysis.ModulePass, info *types.Info, call *ast.CallExpr) {
	// Package-level calls: host sleeps and I/O.
	if path, name, ok := pkgFunc(info, call); ok {
		switch {
		case path == "time" && (name == "Sleep" || name == "After" || name == "Tick" || name == "NewTimer" || name == "NewTicker" || name == "AfterFunc"):
			pass.Reportf(call.Pos(), "time.%s inside an engine callback waits on the host clock, stalling the whole simulation; use Cont.Wait (virtual seconds) instead", name)
		case path == "os" || path == "net" || path == "net/http" || path == "io" || path == "bufio":
			pass.Reportf(call.Pos(), "%s.%s performs real I/O inside an engine callback; callbacks must stay pure compute over engine state", pkgBase(path), name)
		case path == "fmt" && (name == "Print" || name == "Printf" || name == "Println" || name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
			pass.Reportf(call.Pos(), "fmt.%s writes to a real stream inside an engine callback; collect results in engine state and report after Run returns", name)
		}
		return
	}
	// Method calls on sync primitives.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := info.Selections[sel]
	if !ok {
		return
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	switch fn.Name() {
	case "Lock", "RLock", "Wait":
		pass.Reportf(call.Pos(), "sync %s.%s inside an engine callback can block the engine's single dispatch thread; callbacks are already mutually exclusive — drop the lock or move the contention into engine state", namedTypeName(s.Recv()), fn.Name())
	}
}

// pkgBase returns the last path element of an import path.
func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
