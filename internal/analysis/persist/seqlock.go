package persist

// seqlock.go implements the syntactic half of PL010, the seqlock
// read-protocol rule. A seqlock reader must (1) load the version
// counter, (2) bail out when the loaded value marks a write in
// progress (odd value, or zero for slots that publish 0 while being
// written), (3) read the data, and (4) re-load the counter and compare
// it to the saved value, retrying on mismatch. Skipping (2) reads a
// slot mid-write; skipping (4) returns torn data whenever a writer
// raced the reads.
//
// The division of labor: this file checks, per read session, that a
// validity test on the saved version and a re-check comparison exist
// AT ALL in the function — pure existence, no paths — and marks the
// sessions that do have a re-check as "qualified". The obligation
// dataflow (obSeq in dataflow.go) then proves the stronger property
// for qualified sessions: the re-check is reached on EVERY path from
// the load to a return, so an early return between the data reads and
// the re-check is still caught. Sessions whose variables are rebound
// by a loop iteration are excused by evKillVar — a reader that skips
// an invalid slot and moves to the next one owes the dead binding
// nothing.
//
// Version fields are recognized globally: typed sync/atomic fields
// named "version" or "seq", plus any field annotated
// //persistlint:seqlock on its declaration line (or the line above).

import (
	"fmt"
	"go/ast"
	"go/token"
)

// seqSession is one version-load site found in a function body.
type seqSession struct {
	pos  token.Pos
	base string // rendered X.f of the version field
	v    string // the identifier the load is saved into
}

// checkSeqlock finds every seqlock read session in the body, reports
// the sessions missing a validity test or any re-check, and fills
// fa.seqQualified for the dataflow's every-path check. Nested function
// literals are excluded — they are sessions of their own analyses.
func (fa *funcAnalysis) checkSeqlock(emit func(code string, pos token.Pos, msg string)) {
	fa.seqQualified = map[string]bool{}
	if len(fa.an.seqFields) == 0 {
		return
	}

	var sessions []seqSession
	tested := map[string]bool{}    // v identifiers with a validity test
	rechecked := map[string]bool{} // base|v keys with a re-check (compare or CAS)
	returned := map[string]bool{}  // v identifiers handed to the caller
	fa.inspectOwnBody(func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return
			}
			for i, rhs := range x.Rhs {
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if base, ok := fa.seqLoadBase(rhs); ok {
					sessions = append(sessions, seqSession{pos: rhs.Pos(), base: base, v: id.Name})
				}
			}
		case *ast.BinaryExpr:
			if e, ok := fa.seqRecheckEvent(x); ok {
				rechecked[e.key] = true
				return
			}
			if v, ok := validityTestVar(x); ok {
				tested[v] = true
			}
		case *ast.CallExpr:
			if e, ok := fa.seqCASEvent(x); ok {
				rechecked[e.key] = true
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if id, ok := r.(*ast.Ident); ok {
					returned[id.Name] = true
				}
			}
		}
	})

	for _, ss := range sessions {
		fa.an.seqSites[ss.pos] = true
		key := ss.base + "|" + ss.v
		switch {
		case returned[ss.v]:
			// The saved version escapes to the caller: the re-check
			// obligation transfers with it (begin/end read-session APIs).
		case !rechecked[key]:
			emit(CodeSeqlock, ss.pos, fmt.Sprintf(
				"seqlock read of %s is never re-checked: compare %s.Load() against %s after the data reads and retry on mismatch", ss.base, ss.base, ss.v))
		case !tested[ss.v]:
			emit(CodeSeqlock, ss.pos, fmt.Sprintf(
				"seqlock read of %s never tests %s for a write in progress (odd or zero value) before using the data", ss.base, ss.v))
			fa.seqQualified[key] = true // the re-check exists; still dataflow-check it
		default:
			fa.seqQualified[key] = true
		}
	}
}

// inspectOwnBody walks the analyzed body, skipping nested function
// literals (each is analyzed as a function of its own).
func (fa *funcAnalysis) inspectOwnBody(visit func(ast.Node)) {
	first := true
	ast.Inspect(fa.body, func(n ast.Node) bool {
		if first {
			first = false
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// validityTestVar recognizes a write-in-progress test on a saved
// version value: a comparison of v (or v&1, v%2) against an integer
// literal — `v == 0`, `v&1 != 0`, `v%2 == 1`, in either operand order.
func validityTestVar(x *ast.BinaryExpr) (string, bool) {
	switch x.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return "", false
	}
	try := func(varSide, litSide ast.Expr) (string, bool) {
		if _, ok := litSide.(*ast.BasicLit); !ok {
			return "", false
		}
		switch e := varSide.(type) {
		case *ast.Ident:
			return e.Name, true
		case *ast.BinaryExpr:
			if e.Op == token.AND || e.Op == token.REM {
				if id, ok := e.X.(*ast.Ident); ok {
					if _, lit := e.Y.(*ast.BasicLit); lit {
						return id.Name, true
					}
				}
			}
		case *ast.ParenExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				return id.Name, true
			}
		}
		return "", false
	}
	if v, ok := try(x.X, x.Y); ok {
		return v, true
	}
	return try(x.Y, x.X)
}
