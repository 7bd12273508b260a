package analysis

import (
	"go/ast"
	"go/types"
)

// scratchTypes are the per-worker traversal scratch types. Ownership rule:
// one worker, one scratch. A scratch that leaks to another goroutine aliases
// every buffer the kernels assume they own exclusively (visited bitmaps,
// frontier queues, MS-BFS visit words).
var scratchTypes = []struct{ pkgPath, name string }{
	{"repro/internal/sssp", "Scratch"},
	{"repro/internal/sssp", "DijkstraScratch"},
	{"repro/internal/dynsssp", "Scratch"},
}

// ScratchEscape enforces worker-ownership of traversal scratch: a
// Scratch/DijkstraScratch value or pointer must not
//
//   - be sent on a channel (handing ownership to an unknown receiver),
//   - be stored in package-level state (visible to every goroutine), or
//   - be captured by a launched closure when it was created outside it —
//     workers must create their own scratch or take &scratches[w], the
//     index-partitioned slot idiom, which stays legal.
//
// The sync.Pool get/put calls in getScratch/putScratch are method-call
// boundaries, not stores, and stay legal: the pool hands each value to
// exactly one goroutine at a time.
//
// Intentional sharing (e.g. a paired sweep reusing one scratch across both
// sweeps of a single worker) is annotated //convlint:shared <reason>.
var ScratchEscape = &Analyzer{
	Name: "scratchescape",
	Doc:  "per-worker scratch must not escape its worker (no channel sends, package state, or cross-goroutine capture)",
	Run:  runScratchEscape,
}

func isScratchType(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, st := range scratchTypes {
		if namedTypeIs(t, st.pkgPath, st.name) {
			return true
		}
	}
	return false
}

func runScratchEscape(pass *Pass) error {
	flow := NewFlow(pass)
	info := pass.TypesInfo
	pkgScope := pass.Pkg.Scope()

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if isScratchType(info.TypeOf(n.Value)) {
					if !suppressedAt(pass, file, n.Pos(), "shared") {
						pass.Reportf(n.Pos(), "scratch sent on a channel escapes its worker")
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Lhs {
					checkScratchStore(pass, flow, file, pkgScope, n.Lhs[i], n.Rhs[i])
				}
			}
			return true
		})
	}

	// Cross-goroutine capture: a scratch (or pointer to one) declared
	// outside a launched closure but used inside it.
	for _, c := range flow.Closures() {
		if !c.Launched {
			continue
		}
		file := fileOf(pass, c.Lit.Pos())
		if file == nil {
			continue
		}
		for v, cap := range c.Captured {
			if !isScratchType(v.Type()) {
				continue
			}
			pos, ok := cap.Has(AccessRead, AccessWrite, AccessFieldWrite, AccessElemWrite, AccessAddr, AccessAddrElem)
			if !ok {
				continue
			}
			// &scratches[w] / scratches[w] element access partitions by
			// index and stays worker-local. That idiom appears as a capture
			// of the *slice* (not scratch-typed), so reaching here means the
			// scratch variable itself crossed the goroutine boundary.
			if suppressedAt(pass, file, pos, "shared") {
				continue
			}
			pass.Reportf(pos, "scratch %s created outside this goroutine closure is captured by it; create it inside the worker or index a per-worker slice", v.Name())
		}
	}
	return nil
}

// checkScratchStore flags stores of scratch values into package-level
// storage (directly, or through a field/element of a package variable).
func checkScratchStore(pass *Pass, flow *Flow, file *ast.File, pkgScope *types.Scope, lhs, rhs ast.Expr) {
	info := pass.TypesInfo
	if !isScratchType(info.TypeOf(rhs)) {
		return
	}
	root := flow.RootObj(lhs)
	if root == nil {
		return
	}
	global := root.Parent() == pkgScope //convlint:nondet scope identity is the semantics, not allocation order
	if v, ok := root.(*types.Var); ok && v.IsField() {
		// Storing into a field: escape only when the base chain starts at a
		// package variable.
		global = baseIsPackageVar(info, pkgScope, lhs)
	}
	if !global {
		return
	}
	if suppressedAt(pass, file, lhs.Pos(), "shared") {
		return
	}
	pass.Reportf(lhs.Pos(), "scratch stored in package-level state escapes its worker")
}

// baseIsPackageVar walks to the base identifier of a selector/index chain
// and reports whether it names a package-scope variable.
func baseIsPackageVar(info *types.Info, pkgScope *types.Scope, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj, ok := info.Uses[x].(*types.Var)
			//convlint:nondet scope identity is the semantics, not allocation order
			return ok && obj.Parent() == pkgScope
		default:
			return false
		}
	}
}
