// Package hotalloc is the annotation-driven allocation lint behind the
// pooled vector arenas of DESIGN.md §14: functions marked with an
//
//	//afl:hotpath
//
// directive in their doc comment (filter apply, buffer ingest, wire
// encode/decode, replication record build) must not heap-allocate
// per-call vector state. Flagged inside a hot-path function:
//
//   - make([]float64, ...) and []float64{...} composite literals;
//   - append on a []float64 (it may grow and reallocate);
//   - address-taken composite literals (&T{...}) and new() of named
//     structs carrying a direct []float64 field (the update-struct
//     shape) — a value composite is a copy, not a heap allocation;
//   - calls to same-package functions that (transitively) do any of the
//     above, and calls whose result type is []float64 (a fresh slice in
//     any sane implementation).
//
// Pooled allocators are the sanctioned escape hatch: a function whose
// doc comment carries the
//
//	//afl:pooled
//
// directive (and the cross-package fl.Arena getters listed in
// crossPooled — export data carries no doc comments) hands out recycled
// memory, so calling it from a hot path is amortized reuse, not a
// per-call allocation, and is not flagged even when the result type is
// []float64. The allocation inside the pool's miss path lives in the
// unannotated pool package and is the pool's own business.
//
// Every surviving allocation on the hot path is therefore either fixed,
// pooled, or carries a //lint:ignore hotalloc with a justification. A
// directive (either kind) that is not the doc comment of a function
// declaration is itself flagged, so annotations cannot silently detach
// from the code they gate.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/asyncfl/asyncfilter/internal/analysis"
)

// Directive is the hot-path annotation comment.
const Directive = "//afl:hotpath"

// PooledDirective marks a function returning pooled (amortized) memory.
const PooledDirective = "//afl:pooled"

// crossPooled lists pooled allocators outside the package under
// analysis, keyed by types.Func.FullName.
var crossPooled = map[string]bool{
	"(*github.com/asyncfl/asyncfilter/internal/fl.Arena).GetVec":    true,
	"(*github.com/asyncfl/asyncfilter/internal/fl.Arena).GetUpdate": true,
}

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags per-call []float64/update-struct heap allocations in functions annotated //afl:hotpath",
	Run:  run,
}

type checker struct {
	pass      *analysis.Pass
	decls     map[*types.Func]*ast.FuncDecl
	annotated map[*types.Func]bool
	pooled    map[*types.Func]bool
	allocates map[*types.Func]string
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		decls:     analysis.FuncDecls(pass),
		annotated: make(map[*types.Func]bool),
		pooled:    make(map[*types.Func]bool),
	}
	accepted := make(map[token.Pos]bool)
	order := analysis.SortedFuncs(pass, c.decls)
	for _, fn := range order {
		decl := c.decls[fn]
		if decl.Doc == nil {
			continue
		}
		for _, cm := range decl.Doc.List {
			if isDirective(cm.Text) {
				c.annotated[fn] = true
				accepted[cm.Pos()] = true
			}
			if isPooledDirective(cm.Text) {
				c.pooled[fn] = true
				accepted[cm.Pos()] = true
			}
		}
	}

	// A directive anywhere else is dead: it gates nothing.
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				switch {
				case isDirective(cm.Text) && !accepted[cm.Pos()]:
					pass.Reportf(cm.Pos(), "misplaced %s: the directive must be in the doc comment of a function declaration", Directive)
				case isPooledDirective(cm.Text) && !accepted[cm.Pos()]:
					pass.Reportf(cm.Pos(), "misplaced %s: the directive must be in the doc comment of a function declaration", PooledDirective)
				}
			}
		}
	}

	// Same-package allocation classification, for flagging helper calls
	// from hot-path functions at the call site.
	c.allocates = analysis.Classify(pass, c.decls, func(_ *types.Func, decl *ast.FuncDecl) string {
		reason := ""
		analysis.InspectBody(decl.Body, func(n ast.Node) {
			if reason == "" {
				reason = c.allocSite(n, false)
			}
		})
		return reason
	})

	for _, fn := range order {
		if c.annotated[fn] {
			c.checkHot(c.decls[fn])
		}
	}
	return nil
}

func isDirective(text string) bool {
	return text == Directive || strings.HasPrefix(text, Directive+" ")
}

func isPooledDirective(text string) bool {
	return text == PooledDirective || strings.HasPrefix(text, PooledDirective+" ")
}

// checkHot reports every per-call allocation site in a hot-path body.
// Nested function literals run per call and are included; calls to other
// annotated functions are skipped (they are checked on their own).
func (c *checker) checkHot(decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if reason := c.allocSite(n, true); reason != "" {
			c.pass.Reportf(n.Pos(), "hot path (%s) %s: reuse a caller-provided buffer or pool it (DESIGN.md §14 arenas), or justify with //lint:ignore hotalloc <reason>", Directive, reason)
		}
		return true
	})
}

// allocSite classifies one node as a per-call allocation, returning a
// reason or "". When report is true, same-package callee classification
// is consulted (the Classify pass itself must only use direct sites).
func (c *checker) allocSite(n ast.Node, report bool) string {
	switch n := n.(type) {
	case *ast.CompositeLit:
		tv, ok := c.pass.TypesInfo.Types[n]
		if !ok || tv.Type == nil {
			return ""
		}
		if isFloatSlice(tv.Type) {
			return "allocates a []float64 (composite literal)"
		}
	case *ast.UnaryExpr:
		// Only an address-taken update-struct composite heap-allocates; a
		// value composite is a copy (stack or return slot).
		if n.Op != token.AND {
			return ""
		}
		lit, ok := ast.Unparen(n.X).(*ast.CompositeLit)
		if !ok {
			return ""
		}
		if tv, ok := c.pass.TypesInfo.Types[lit]; ok && tv.Type != nil {
			if name := updateStructName(tv.Type); name != "" {
				return fmt.Sprintf("heap-allocates update struct %s (carries a []float64)", name)
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if _, builtin := c.pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				switch id.Name {
				case "make":
					if tv, ok := c.pass.TypesInfo.Types[n]; ok && isFloatSlice(tv.Type) {
						return "allocates a []float64 (make)"
					}
				case "append":
					if tv, ok := c.pass.TypesInfo.Types[n]; ok && isFloatSlice(tv.Type) {
						return "appends to a []float64 (may grow and reallocate)"
					}
				case "new":
					if tv, ok := c.pass.TypesInfo.Types[n]; ok {
						if ptr, isPtr := tv.Type.(*types.Pointer); isPtr {
							if name := updateStructName(ptr.Elem()); name != "" {
								return fmt.Sprintf("heap-allocates update struct %s (carries a []float64)", name)
							}
						}
					}
				}
				return ""
			}
		}
		// Conversions reuse the operand's backing store.
		if tv, ok := c.pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
			return ""
		}
		callee := analysis.CalleeOf(c.pass.TypesInfo, n)
		// Pooled allocators hand out recycled memory: amortized, not a
		// per-call allocation.
		if callee != nil && (c.pooled[callee] || crossPooled[callee.FullName()]) {
			return ""
		}
		if callee != nil && callee.Pkg() == c.pass.Pkg {
			if !report {
				// Classify adds same-package transitivity itself.
				return ""
			}
			if c.annotated[callee] {
				return ""
			}
			if r := c.allocates[callee]; r != "" {
				return fmt.Sprintf("calls %s, which %s", callee.Name(), r)
			}
			return ""
		}
		// Cross-package call returning a []float64: a fresh slice in any
		// sane implementation (vecmath.Clone, stats means...).
		if tv, ok := c.pass.TypesInfo.Types[n]; ok && isFloatSlice(tv.Type) {
			name := analysis.ExprText(n.Fun, "call")
			return fmt.Sprintf("call to %s returns a fresh []float64", name)
		}
	}
	return ""
}

// isFloatSlice reports whether t is a slice of float64.
func isFloatSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Float64
}

// updateStructName returns the name of a named struct type with a direct
// []float64 field — the update-struct shape — or "".
func updateStructName(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isFloatSlice(st.Field(i).Type()) {
			return named.Obj().Name()
		}
	}
	return ""
}
