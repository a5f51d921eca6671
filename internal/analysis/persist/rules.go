package persist

import (
	"go/ast"
	"go/token"
)

// run executes all per-function rules on one function declaration.
func (fa *funcAnalysis) run() []Finding {
	var out []Finding
	fa.runCFG(fa.body, &out)
	return out
}

// runCFG builds the control-flow graph for one body, runs the
// path-sensitive rules (PL001/PL002/PL010/PL012 obligations, PL006 and
// PL014 lock order), then recurses into the function literals the body
// contains — each literal is a function of its own (its body may run
// on another goroutine, later, or never), analyzed with the enclosing
// function's thread environment plus its own parameters.
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
	fa.checkLockOrder(g, fa.lockFixpoint(g), emit)

	for i, lit := range subs {
		sub := fa.forLit(lit, i)
		sub.runCFG(lit.Body, out)
	}
}
