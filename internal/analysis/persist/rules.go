package persist

import (
	"fmt"
	"go/ast"
	"go/token"
)

// span is a half-open source range [from, to).
type span struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.from && p < s.to }

func inSpans(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

// run executes all rules on one function declaration.
func (fa *funcAnalysis) run() []Finding {
	var out []Finding
	fa.runCFG(fa.body, &out)

	emit := func(code string, pos token.Pos, msg string) {
		if f, ok := fa.finding(code, pos, msg); ok {
			out = append(out, f)
		}
	}
	fa.checkEADR(emit)
	out = append(out, fa.checkEscapes()...)
	return out
}

// runCFG builds the control-flow graph for one body, runs the
// path-sensitive rules (PL001/PL002/PL005 obligations, PL006 lock
// order), then recurses into the function literals the body contains —
// each literal is a function of its own (its body may run on another
// goroutine, later, or never), analyzed with the enclosing function's
// thread and address environment plus its own parameters.
func (fa *funcAnalysis) runCFG(body *ast.BlockStmt, out *[]Finding) {
	g, subs := fa.buildCFG(body)
	fa.an.stats.Functions++
	fa.an.stats.CFGNodes += len(g.nodes)

	emit := func(code string, pos token.Pos, msg string) {
		if f, ok := fa.finding(code, pos, msg); ok {
			*out = append(*out, f)
		}
	}
	fa.checkSeqlock(emit) // fills seqQualified before the obligation pass
	fa.checkObligations(g, emit)
	held := fa.lockFixpoint(g)
	fa.checkLockOrder(g, held, emit)
	fa.collectAccesses(g, held)
	fa.checkWastedPersist(g, emit)

	for i, lit := range subs {
		sub := fa.forLit(lit, i)
		sub.runCFG(lit.Body, out)
	}
}

// checkEADR implements PL003: a Flush/Persist that can only execute on
// an eADR-only branch writes back nothing — dead code that usually
// signals inverted mode logic. This is a whole-body span check (the
// finding is about where the call sits, not about path joins).
func (fa *funcAnalysis) checkEADR(emit func(code string, pos token.Pos, msg string)) {
	spans := fa.collectEADRSpans()
	if len(spans) == 0 {
		return
	}
	ast.Inspect(fa.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, method, ok := fa.threadCall(call)
		if !ok || (method != "Flush" && method != "Persist") {
			return true
		}
		if inSpans(spans, call.Pos()) {
			emit(CodeDeadFlush, call.Pos(), fmt.Sprintf(
				"%s.%s under an eADR-only branch is a no-op (eADR stores are already durable)", key, method))
		}
		return true
	})
}

// collectEADRSpans returns the ranges of statements that only execute
// when the mode is eADR: the body of `if mode == EADR`, the else of
// `if mode != EADR`, and `case EADR:` clauses.
func (fa *funcAnalysis) collectEADRSpans() []span {
	var spans []span
	ast.Inspect(fa.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if condImpliesEADR(x.Cond) {
				spans = append(spans, span{x.Body.Pos(), x.Body.End()})
			}
			if condExcludesEADR(x.Cond) && x.Else != nil {
				spans = append(spans, span{x.Else.Pos(), x.Else.End()})
			}
		case *ast.SwitchStmt:
			for _, stmt := range x.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, v := range cc.List {
					if isEADRRef(v) {
						spans = append(spans, span{cc.Pos(), cc.End()})
						break
					}
				}
			}
		}
		return true
	})
	return spans
}

// checkEscapes implements PL004: a single-owner value — *pmem.Thread
// or *obs.Handle — crossing a goroutine boundary. A freshly created
// value (pool.NewThread(...) / m.NewHandle() as a go-call argument) is
// an ownership transfer and is allowed; an existing identifier or field
// crossing the boundary is not.
func (fa *funcAnalysis) checkEscapes() []Finding {
	var out []Finding
	emit := func(pos token.Pos, msg string) {
		if f, ok := fa.finding(CodeThreadEscape, pos, msg); ok {
			out = append(out, f)
		}
	}
	// ownedKind classifies an existing (non-freshly-created) expression
	// as one of the single-owner types, returning its display name.
	ownedKind := func(e ast.Expr) (string, bool) {
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if fa.isThreadExpr(e) {
				return "*pmem.Thread", true
			}
			if fa.isHandleExpr(e) {
				return "*obs.Handle", true
			}
		}
		return "", false
	}
	identKind := func(name string) (string, bool) {
		if fa.threads[name] {
			return "*pmem.Thread", true
		}
		if fa.handles[name] {
			return "*obs.Handle", true
		}
		return "", false
	}
	// goBody checks a closure that runs on a goroutine of its own.
	goBody := func(lit *ast.FuncLit) {
		local := declaredNames(lit.Body)
		for _, fld := range lit.Type.Params.List {
			for _, id := range fld.Names {
				local[id.Name] = true
			}
		}
		for _, id := range freeIdents(lit.Body) {
			if kind, ok := identKind(id.Name); ok && !local[id.Name] {
				emit(id.Pos(), fmt.Sprintf(
					"%s %q captured by goroutine closure; %s is single-owner", kind, id.Name, kind))
			}
		}
	}
	ast.Inspect(fa.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// pmem.Parallel runs its body on n goroutines at once.
			if fa.isParallelCall(x) {
				for _, arg := range x.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						goBody(lit)
					}
				}
			}
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				goBody(lit)
			}
			for _, arg := range x.Call.Args {
				if kind, ok := ownedKind(arg); ok {
					emit(arg.Pos(), fmt.Sprintf(
						"%s %s passed into a goroutine; %s is single-owner", kind, renderExpr(arg), kind))
				}
			}
		case *ast.SendStmt:
			if kind, ok := ownedKind(x.Value); ok {
				emit(x.Value.Pos(), fmt.Sprintf(
					"%s %s sent over a channel; %s is single-owner", kind, renderExpr(x.Value), kind))
			}
		}
		return true
	})
	return out
}

// isParallelCall reports whether call is pmem.Parallel (a bare Parallel
// inside package pmem).
func (fa *funcAnalysis) isParallelCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		id, ok := f.X.(*ast.Ident)
		return ok && fa.fi.pmemName != "" && id.Name == fa.fi.pmemName && f.Sel.Name == "Parallel"
	case *ast.Ident:
		return fa.fi.inPmem && f.Name == "Parallel"
	}
	return false
}

// declaredNames collects names the closure body declares itself (:=,
// var, range with define): referencing those is not a capture.
func declaredNames(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, l := range x.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				if id, ok := x.Key.(*ast.Ident); ok {
					out[id.Name] = true
				}
				if id, ok := x.Value.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// freeIdents returns value-position identifiers in a closure body:
// selector fields (x.Sel) and composite-literal keys are excluded so a
// struct field named like a thread variable does not false-positive.
func freeIdents(body *ast.BlockStmt) []*ast.Ident {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			skip[x.Sel] = true
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				skip[id] = true
			}
		}
		return true
	})
	var out []*ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] {
			out = append(out, id)
		}
		return true
	})
	return out
}
