// Package lockio flags blocking operations reachable while a
// sync.Mutex or sync.RWMutex is held.
//
// Invariant (transport): a server that performs I/O under its state lock
// serializes every client behind the slowest peer's network, and a stalled
// conn write while holding s.mu deadlocks heartbeats, checkpointing and
// shutdown. Blocking operations are:
//
//   - reads/writes on values implementing net.Conn;
//   - encoding/gob Encode/Decode (they drive the underlying conn);
//   - sends, receives, and ranges on channels this package provably
//     creates unbuffered (make(chan T) with no or zero capacity);
//   - Filter invocations (the full filter pass is O(buffer · dim) and
//     must not run under the connection-facing lock), and Decide
//     invocations: fl.Engine's decide step is where the servers' Filter
//     and Combine calls now live, out of this package's sight;
//   - calls to same-package functions that transitively do any of the
//     above (the *Locked helper pattern).
//
// The walk is statement-ordered and path-aware: a branch that unlocks
// and returns does not clear the fall-through state, defer mu.Unlock()
// holds to function end, sync.Cond.Wait is exempt (it releases the
// mutex), select statements and go statements are not flagged, and
// function literals are analyzed separately with a fresh lock state.
package lockio

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/asyncfl/asyncfilter/internal/analysis"
)

// Analyzer is the lockio check.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "flags blocking calls (conn I/O, gob, unbuffered channel ops, Filter, the round's Decide) reachable while a sync mutex is held",
	Run:  run,
}

// checker carries package-wide facts.
type checker struct {
	pass *analysis.Pass
	// decls maps same-package functions to their bodies.
	decls map[*types.Func]*ast.FuncDecl
	// blocking maps a same-package function to a short reason it can
	// block, or "" when it cannot.
	blocking map[*types.Func]string
	// unbuffered holds channel variables and struct fields that are only
	// ever assigned make(chan T) with zero capacity.
	unbuffered map[types.Object]bool
	// disqualified holds channel objects with any other assignment
	// (buffered make, parameter aliasing) — bufferedness unknown.
	disqualified map[types.Object]bool
	// connIface is net.Conn when the package imports net.
	connIface *types.Interface
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:         pass,
		decls:        make(map[*types.Func]*ast.FuncDecl),
		blocking:     make(map[*types.Func]string),
		unbuffered:   make(map[types.Object]bool),
		disqualified: make(map[types.Object]bool),
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == "net" {
			if obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName); ok {
				c.connIface, _ = obj.Type().Underlying().(*types.Interface)
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				c.decls[obj] = fn
			}
		}
		c.collectChannels(file)
	}

	// Fixpoint: a function blocks if it contains a direct blocking op or
	// calls a same-package function that blocks.
	for {
		changed := false
		for obj, fn := range c.decls {
			if c.blocking[obj] != "" {
				continue
			}
			if reason := c.bodyBlocks(fn.Body); reason != "" {
				c.blocking[obj] = reason
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, fn := range c.decls {
		c.walkStmts(fn.Body.List, map[string]bool{})
	}
	// Function literals get their own walk with no lock held.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.walkStmts(lit.Body.List, map[string]bool{})
			}
			return true
		})
	}
	return nil
}

// collectChannels records channel variables and fields whose every
// assignment is an unbuffered make.
func (c *checker) collectChannels(file *ast.File) {
	record := func(target ast.Expr, value ast.Expr) {
		obj := c.chanObject(target)
		if obj == nil {
			return
		}
		switch kind := makeChanKind(c.pass, value); kind {
		case chanUnbuffered:
			c.unbuffered[obj] = true
		default:
			c.disqualified[obj] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					record(lhs, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					record(kv.Key, kv.Value)
				}
			}
		}
		return true
	})
}

type chanKind int

const (
	chanOther chanKind = iota
	chanUnbuffered
)

// makeChanKind classifies an assigned value: unbuffered make, or
// anything else.
func makeChanKind(pass *analysis.Pass, expr ast.Expr) chanKind {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return chanOther
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return chanOther
	}
	if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); !builtin {
		return chanOther
	}
	if len(call.Args) == 0 {
		return chanOther
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return chanOther
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return chanOther
	}
	if len(call.Args) == 1 {
		return chanUnbuffered
	}
	if cap, ok := pass.TypesInfo.Types[call.Args[1]]; ok && cap.Value != nil && cap.Value.String() == "0" {
		return chanUnbuffered
	}
	return chanOther
}

// chanObject resolves a channel expression (ident, s.done selector, or a
// composite-literal field key) to its variable object.
func (c *checker) chanObject(expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return c.pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok {
			return sel.Obj()
		}
		return c.pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// provablyUnbuffered reports whether every assignment seen for the
// channel expression's object is an unbuffered make.
func (c *checker) provablyUnbuffered(expr ast.Expr) bool {
	obj := c.chanObject(expr)
	return obj != nil && c.unbuffered[obj] && !c.disqualified[obj]
}

// --- direct blocking detection -------------------------------------------

// blockingCall classifies a call expression, returning a non-empty
// reason if it can block. transitive controls whether same-package
// callees marked blocking count.
func (c *checker) blockingCall(call *ast.CallExpr, transitive bool) string {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var callee *types.Func
	if isSel {
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok {
			callee, _ = s.Obj().(*types.Func)
		} else if f, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			callee = f
		}
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		callee, _ = c.pass.TypesInfo.Uses[id].(*types.Func)
	}

	if isSel && callee != nil {
		// sync.Cond.Wait releases the mutex while parked: sanctioned.
		if isSyncMethod(callee, "Cond", "Wait") {
			return ""
		}
		name := sel.Sel.Name
		// Conn I/O: a read or write on anything implementing net.Conn.
		if (name == "Read" || name == "Write") && c.connIface != nil {
			if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil && types.Implements(tv.Type, c.connIface) {
				return fmt.Sprintf("net.Conn %s on %q", name, exprText(sel.X))
			}
		}
		// gob drives the underlying reader/writer.
		if pkgOf(callee) == "encoding/gob" {
			switch name {
			case "Encode", "Decode", "EncodeValue", "DecodeValue":
				return "gob " + name
			}
		}
		// The filter pass is O(buffer · dim). A Filter method without
		// arguments is an accessor (Engine.Filter, Server.Filter), not a
		// pass.
		if (name == "Filter" || name == "Decide") && len(call.Args) > 0 {
			return fmt.Sprintf("%s invocation on %q", name, exprText(sel.X))
		}
	}

	if transitive && callee != nil && callee.Pkg() == c.pass.Pkg {
		if reason := c.blocking[callee]; reason != "" {
			return fmt.Sprintf("call to %s (%s)", callee.Name(), reason)
		}
	}
	return ""
}

// blockingNode classifies a non-call node: channel operations on
// provably unbuffered channels.
func (c *checker) blockingNode(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		if c.provablyUnbuffered(n.Chan) {
			return fmt.Sprintf("send on unbuffered channel %q", exprText(n.Chan))
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && c.provablyUnbuffered(n.X) {
			return fmt.Sprintf("receive on unbuffered channel %q", exprText(n.X))
		}
	case *ast.RangeStmt:
		if tv, ok := c.pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && c.provablyUnbuffered(n.X) {
				return fmt.Sprintf("range over unbuffered channel %q", exprText(n.X))
			}
		}
	}
	return ""
}

// bodyBlocks scans a function body for any direct blocking operation,
// or a call to an already-known-blocking same-package function. Select
// clauses, go statements, and nested function literals do not make the
// enclosing function blocking.
func (c *checker) bodyBlocks(body *ast.BlockStmt) string {
	reason := ""
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.SelectStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if r := c.blockingCall(n, true); r != "" {
				reason = r
				return false
			}
		default:
			if r := c.blockingNode(n); r != "" {
				reason = r
				return false
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return reason
}

// --- lock-state walk ------------------------------------------------------

// mutexOp classifies a call as a Lock/Unlock-family method on a sync
// mutex, returning the lock's display text.
func (c *checker) mutexOp(call *ast.CallExpr) (lock string, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	var callee *types.Func
	if s, found := c.pass.TypesInfo.Selections[sel]; found {
		callee, _ = s.Obj().(*types.Func)
	}
	if callee == nil {
		return "", "", false
	}
	if !isSyncMethod(callee, "Mutex", sel.Sel.Name) && !isSyncMethod(callee, "RWMutex", sel.Sel.Name) {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return exprText(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// isSyncMethod reports whether f is sync.<recv>.<name>.
func isSyncMethod(f *types.Func, recv, name string) bool {
	if f.Name() != name || pkgOf(f) != "sync" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recv
}

func pkgOf(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// walkStmts walks a statement list in order, mutating held (lock text →
// held) and reporting blocking operations encountered while any lock is
// held. It returns true if the list terminates (return/panic), in which
// case callers discard its lock-state changes.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]bool) bool {
	for _, stmt := range stmts {
		if c.walkStmt(stmt, held) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(stmt ast.Stmt, held map[string]bool) (terminates bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if lock, method, ok := c.mutexOp(call); ok {
				switch method {
				case "Lock", "RLock":
					held[lock] = true
				case "Unlock", "RUnlock":
					delete(held, lock)
				}
				return false
			}
		}
		c.checkExpr(s.X, held)
	case *ast.DeferStmt:
		if lock, method, ok := c.mutexOp(s.Call); ok {
			_ = lock
			_ = method
			// defer mu.Unlock(): the lock stays held to function end;
			// leave `held` as is. Deferred Lock would be pathological.
			return false
		}
		// Deferred calls run at return, outside this walk's scope.
	case *ast.GoStmt:
		// Spawning does not block; the goroutine body is walked
		// separately with a fresh lock state.
	case *ast.SelectStmt:
		// Select blocks by design until a case is ready; flagging every
		// select would drown real findings. Walk clause bodies only.
		for _, clause := range s.Body.List {
			if comm, ok := clause.(*ast.CommClause); ok {
				sub := copyHeld(held)
				c.walkStmts(comm.Body, sub)
			}
		}
	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		thenHeld := copyHeld(held)
		thenTerm := c.walkStmts(s.Body.List, thenHeld)
		elseHeld := copyHeld(held)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(s.Else, elseHeld)
		}
		// Merge fall-through states; a terminating branch contributes
		// nothing. Both terminating → the statement terminates.
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replaceHeld(held, elseHeld)
		case elseTerm:
			replaceHeld(held, thenHeld)
		default:
			replaceHeld(held, intersectHeld(thenHeld, elseHeld))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, held)
		}
		bodyHeld := copyHeld(held)
		c.walkStmts(s.Body.List, bodyHeld)
		replaceHeld(held, intersectHeld(held, bodyHeld))
	case *ast.RangeStmt:
		if r := c.blockingNode(s); r != "" {
			c.reportHeld(s.Pos(), r, held)
		}
		c.checkExpr(s.X, held)
		bodyHeld := copyHeld(held)
		c.walkStmts(s.Body.List, bodyHeld)
		replaceHeld(held, intersectHeld(held, bodyHeld))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				sub := copyHeld(held)
				c.walkStmts(cc.Body, sub)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				sub := copyHeld(held)
				c.walkStmts(cc.Body, sub)
			}
		}
	case *ast.SendStmt:
		if r := c.blockingNode(s); r != "" {
			c.reportHeld(s.Pos(), r, held)
		}
		c.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.checkExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			c.checkExpr(lhs, held)
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			c.checkExpr(res, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto end straight-line flow; treat like
		// termination so guard patterns don't leak state.
		return true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	case *ast.IncDecStmt, *ast.EmptyStmt:
	default:
		// Conservative default: scan any other statement's expressions.
		ast.Inspect(stmt, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.checkExpr(e, held)
				return false
			}
			return true
		})
	}
	return false
}

// checkExpr reports blocking calls and channel receives inside an
// expression evaluated while locks are held. Nested function literals
// are skipped (walked separately).
func (c *checker) checkExpr(expr ast.Expr, held map[string]bool) {
	if len(held) == 0 || expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if r := c.blockingCall(n, true); r != "" {
				c.reportHeld(n.Pos(), r, held)
			}
		case *ast.UnaryExpr:
			if r := c.blockingNode(n); r != "" {
				c.reportHeld(n.Pos(), r, held)
			}
		}
		return true
	})
}

func (c *checker) reportHeld(pos token.Pos, reason string, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	lock := ""
	for l := range held {
		if lock == "" || l < lock {
			lock = l
		}
	}
	c.pass.Reportf(pos, "%s while %q is held: move blocking work outside the critical section", reason, lock)
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func replaceHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

func intersectHeld(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// exprText renders simple ident/selector chains for messages.
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprText(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return "mutex"
}
