package persist

// events.go lowers AST fragments into the event stream the dataflow
// analysis consumes: thread-API calls (Store/WriteRange/Flush/Fence/
// Persist) and plain calls that may discharge obligations through an
// interprocedural summary. Function literals are not lowered in place — their bodies
// run elsewhere (or never), so they are registered as sub-analyses.

import (
	"go/ast"
	"go/token"
	"sort"
)

// extract lowers one expression or statement into events, in source
// order. Non-deferred FuncLit bodies are skipped here and queued on
// b.subs for separate analysis.
//
// Besides the thread-API events, the walk records
// evSeqBegin/evSeqRecheck for seqlock version loads and their re-check
// comparisons (PL010), and evKillVar for identifier rebindings, so a
// seqlock session keyed on a variable does not survive its
// reassignment.
func (b *cfgBuilder) extract(root ast.Node) []event {
	var out []event
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			b.subs = append(b.subs, x)
			return false
		case *ast.AssignStmt:
			out = append(out, b.fa.assignEvents(x)...)
		case *ast.IncDecStmt:
			if id, ok := x.X.(*ast.Ident); ok {
				out = append(out, event{pos: x.Pos(), kind: evKillVar, key: id.Name})
			}
		case *ast.BinaryExpr:
			if e, ok := b.fa.seqRecheckEvent(x); ok {
				out = append(out, e)
			} else if v, ok := validityTestVar(x); ok {
				out = append(out, event{pos: x.Pos(), kind: evSeqValid, key: v})
			}
		case *ast.CallExpr:
			if e, ok := b.fa.seqCASEvent(x); ok {
				out = append(out, e)
			}
			if e, ok := b.fa.callEvent(x); ok {
				out = append(out, e)
			}
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// assignEvents lowers one assignment: a kill for every rebound
// identifier (positioned at the statement start, so it precedes the
// RHS events and a fresh seqlock session opened by this very statement
// survives its own kill), and an evSeqBegin when the right side is a
// seqlock version load.
func (fa *funcAnalysis) assignEvents(as *ast.AssignStmt) []event {
	var out []event
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			out = append(out, event{pos: as.Pos(), kind: evKillVar, key: id.Name})
		}
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if base, ok := fa.seqLoadBase(rhs); ok {
				out = append(out, event{pos: rhs.Pos(), kind: evSeqBegin, key: base + "|" + id.Name})
			}
		}
	}
	return out
}

// seqLoadBase recognizes X.f.Load() where f is a seqlock version field,
// returning the rendered X.f base ("" otherwise).
func (fa *funcAnalysis) seqLoadBase(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return "", false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || !fa.an.seqFields[inner.Sel.Name] {
		return "", false
	}
	return renderExpr(inner), true
}

// seqCASEvent recognizes X.f.CompareAndSwap(v, ...) on a version field
// f: the CAS validates the saved version atomically, which is the
// version-lock acquire idiom's re-check.
func (fa *funcAnalysis) seqCASEvent(call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "CompareAndSwap" || len(call.Args) < 1 {
		return event{}, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || !fa.an.seqFields[inner.Sel.Name] {
		return event{}, false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return event{}, false
	}
	return event{pos: call.Pos(), kind: evSeqRecheck, key: renderExpr(inner) + "|" + id.Name}, true
}

// seqRecheckEvent recognizes the seqlock re-check comparison:
// X.f.Load() ==/!= v (either operand order) for a version field f.
func (fa *funcAnalysis) seqRecheckEvent(x *ast.BinaryExpr) (event, bool) {
	if x.Op != token.EQL && x.Op != token.NEQ {
		return event{}, false
	}
	try := func(loadSide, varSide ast.Expr) (event, bool) {
		base, ok := fa.seqLoadBase(loadSide)
		if !ok {
			return event{}, false
		}
		id, ok := varSide.(*ast.Ident)
		if !ok {
			return event{}, false
		}
		return event{pos: x.Pos(), kind: evSeqRecheck, key: base + "|" + id.Name}, true
	}
	if e, ok := try(x.X, x.Y); ok {
		return e, true
	}
	return try(x.Y, x.X)
}

// extractDeferred lowers a deferred call into the events that run at
// function exit. `defer t.Persist(...)` yields the call's own event;
// `defer func() { ... }()` yields every event in the literal's body
// (it runs exactly once, at return, on the deferring goroutine).
func (b *cfgBuilder) extractDeferred(call *ast.CallExpr) []event {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return b.extract(lit.Body)
	}
	if e, ok := b.fa.callEvent(call); ok {
		return []event{e}
	}
	return nil
}

// callEvent classifies one call expression.
func (fa *funcAnalysis) callEvent(call *ast.CallExpr) (event, bool) {
	if key, method, ok := fa.threadCall(call); ok {
		e := event{pos: call.Pos(), key: key, method: method}
		switch method {
		case "Store", "WriteRange":
			e.kind = evStore
		case "Flush":
			e.kind = evFlush
		case "Fence":
			e.kind = evFence
		case "Persist":
			e.kind = evPersist
		default:
			return event{}, false
		}
		return e, true
	}
	// Plain call: a summary site when the call graph resolves any
	// candidates (exact where the receiver type is known, the bare-name
	// set otherwise — see callgraph.go).
	keys := fa.calleeCandidates(call)
	if len(keys) == 0 {
		return event{}, false
	}
	e := event{pos: call.Pos(), kind: evCall, calleeKeys: keys}
	for _, arg := range call.Args {
		if fa.isThreadExpr(arg) {
			e.threadArgs = append(e.threadArgs, renderExpr(arg))
		}
	}
	return e, true
}
