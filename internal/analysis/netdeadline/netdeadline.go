// Package netdeadline flags conn I/O that is not preceded by a deadline.
//
// Invariant (transport/topology/replica, established in PR 1): every
// read or write on a net.Conn — including the gob Encode/Decode calls
// that drive one — is armed by SetDeadline/SetReadDeadline/
// SetWriteDeadline first, so a stalled or malicious peer can never park a
// server goroutine forever. The convention was only enforced by fault-
// injection tests until now; this analyzer makes it static.
//
// The check is per function body (function literals count as their own
// bodies, since they may run on another goroutine): each blocking
// operation must have, earlier in the same body, either a direct
// SetXDeadline call on a value implementing net.Conn or a call to a
// same-package function that (transitively) performs one — the
// armRead/armWrite helper pattern. "Earlier in the same body" is a
// source-position dominance approximation: it accepts the standard
// config-guarded arm (`if timeout > 0 { SetReadDeadline }`), whose
// zero-value branch deliberately disables deadlines, and rejects
// arm-after-use orderings. Blocking operations are Read/Write on
// net.Conn values and Encode/Decode on encoding/gob codecs; arming is
// not tracked per conn (one conn per session function is the repo's
// shape — a function mixing conns needs its arms before its first op of
// each kind anyway). Methods on a type that itself implements net.Conn
// are exempt: such a wrapper forwards I/O to the conn it wraps, and
// deadline policy belongs to the caller arming the wrapper.
package netdeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/asyncfl/asyncfilter/internal/analysis"
)

// Analyzer is the netdeadline check.
var Analyzer = &analysis.Analyzer{
	Name: "netdeadline",
	Doc:  "flags net.Conn reads/writes and gob Encode/Decode not preceded by a deadline arm in the same function",
	Run:  run,
}

type checker struct {
	pass      *analysis.Pass
	connIface *types.Interface
	// armsRead/armsWrite classify same-package functions that
	// (transitively) arm a read/write deadline on some conn.
	armsRead  map[*types.Func]string
	armsWrite map[*types.Func]string
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		connIface: analysis.NamedInterface(pass.Pkg, "net", "Conn"),
	}
	decls := analysis.FuncDecls(pass)
	c.armsRead = analysis.Classify(pass, decls, func(_ *types.Func, decl *ast.FuncDecl) string {
		return c.directArm(decl.Body, "read")
	})
	c.armsWrite = analysis.Classify(pass, decls, func(_ *types.Func, decl *ast.FuncDecl) string {
		return c.directArm(decl.Body, "write")
	})

	for _, fn := range analysis.SortedFuncs(pass, decls) {
		if c.isConnMethod(fn) {
			// A method on a type that itself implements net.Conn IS the
			// conn: a wrapper (FaultConn) forwards Read/Write to the
			// wrapped conn, and deadline policy belongs to the caller —
			// its SetDeadline forwards through the same wrapper.
			continue
		}
		c.checkBody(decls[fn].Body)
	}
	// Function literals are their own bodies: a closure may outlive the
	// deadline state of its lexical context.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkBody(lit.Body)
			}
			return true
		})
	}
	return nil
}

// isConnMethod reports whether fn is a method on a type that itself
// implements net.Conn (a conn wrapper whose bodies are exempt).
func (c *checker) isConnMethod(fn *types.Func) bool {
	if c.connIface == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return analysis.ImplementsOrPtr(sig.Recv().Type(), c.connIface)
}

// directArm reports whether the body directly arms a deadline of the
// given kind on a net.Conn.
func (c *checker) directArm(body *ast.BlockStmt, kind string) string {
	reason := ""
	analysis.InspectBody(body, func(n ast.Node) {
		if reason != "" {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if k, name := c.armKind(call); k == kind || k == "both" {
			reason = name + " call"
		}
	})
	return reason
}

// armKind classifies a call as a deadline arm on a net.Conn: "read",
// "write", "both", or "".
func (c *checker) armKind(call *ast.CallExpr) (kind, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || c.connIface == nil {
		return "", ""
	}
	switch sel.Sel.Name {
	case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return "", ""
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok || !analysis.ImplementsOrPtr(tv.Type, c.connIface) {
		// Listener deadlines (a *net.TCPListener's SetDeadline) do not
		// arm conn I/O.
		return "", ""
	}
	switch sel.Sel.Name {
	case "SetDeadline":
		return "both", "SetDeadline"
	case "SetReadDeadline":
		return "read", "SetReadDeadline"
	}
	return "write", "SetWriteDeadline"
}

// blockingOp classifies a call as deadline-requiring conn I/O, returning
// the kind of deadline it needs and a description.
func (c *checker) blockingOp(call *ast.CallExpr) (kind, desc string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if (name == "Read" || name == "Write") && c.connIface != nil {
		if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil && types.Implements(tv.Type, c.connIface) {
			if name == "Read" {
				return "read", "net.Conn Read"
			}
			return "write", "net.Conn Write"
		}
	}
	callee := analysis.CalleeOf(c.pass.TypesInfo, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "encoding/gob" {
		switch name {
		case "Decode", "DecodeValue":
			return "read", "gob " + name
		case "Encode", "EncodeValue":
			return "write", "gob " + name
		}
	}
	return "", ""
}

// checkBody verifies every blocking op in one body is preceded (in source
// position) by an arm of the required kind.
func (c *checker) checkBody(body *ast.BlockStmt) {
	var armRead, armWrite token.Pos // earliest arm position, or NoPos
	note := func(kind string, pos token.Pos) {
		if (kind == "read" || kind == "both") && (armRead == token.NoPos || pos < armRead) {
			armRead = pos
		}
		if (kind == "write" || kind == "both") && (armWrite == token.NoPos || pos < armWrite) {
			armWrite = pos
		}
	}
	// First sweep: collect arm positions (direct and via helpers).
	analysis.InspectBody(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if kind, _ := c.armKind(call); kind != "" {
			note(kind, call.Pos())
			return
		}
		callee := analysis.CalleeOf(c.pass.TypesInfo, call)
		if callee == nil || callee.Pkg() != c.pass.Pkg {
			return
		}
		if c.armsRead[callee] != "" {
			note("read", call.Pos())
		}
		if c.armsWrite[callee] != "" {
			note("write", call.Pos())
		}
	})
	// Second sweep: every blocking op needs an earlier arm of its kind.
	analysis.InspectBody(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		kind, desc := c.blockingOp(call)
		if kind == "" {
			return
		}
		arm := armRead
		deadline := "SetReadDeadline"
		if kind == "write" {
			arm = armWrite
			deadline = "SetWriteDeadline"
		}
		if arm == token.NoPos || arm >= call.Pos() {
			c.pass.Reportf(call.Pos(), "%s without a %s deadline: call %s (or an arming helper) on this conn earlier in the function", desc, kind, deadline)
		}
	})
}
