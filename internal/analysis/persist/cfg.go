package persist

// cfg.go builds a hand-rolled control-flow graph over one function
// body (stdlib go/ast only). Each CFG node carries the thread-API and
// lock events that execute when control passes through it, in source
// order; edges follow Go's statement-level control flow: if/else,
// for/range (with back edges), switch/type-switch/select (including
// fallthrough), break/continue (labeled and not), return, and calls
// that never return (panic, os.Exit, (*testing.T).Fatal, ...).
//
// Two refinements matter for the persistence rules:
//
//   - Branch edges implied by the platform mode are annotated: control
//     entering an eADR-only region (the then of `mode == EADR`, the
//     else of `mode != EADR`, the not-taken edge of `mode == ADR`, a
//     `case EADR:` clause) receives a synthetic evEADR event that
//     clears all obligations, because stores are durable at retirement
//     inside the eADR persistence domain.
//
//   - defer bodies do not execute in place: their events are collected
//     into cfg.deferred and replayed (in LIFO order) at the synthetic
//     exit node, which every return edge targets.
//
// Function literals are not inlined: each non-deferred FuncLit body is
// returned as a sub-function and analyzed as a function of its own
// (capturing the enclosing thread variables).

import (
	"go/ast"
	"go/token"
)

// Event kinds. evStore..evPersist mirror the pmem Thread API; the rest
// are synthetic.
const (
	evStore      = iota // Store/WriteRange: creates a flush obligation
	evFlush             // Flush: discharges stores, creates a fence obligation
	evFence             // Fence: discharges flush obligations
	evPersist           // Persist: discharges both
	evCall              // call with *pmem.Thread arguments (summary site)
	evLock              // acquire of a declared-order lock class
	evUnlock            // release of a declared-order lock class
	evEADR              // control entered an eADR-only region: all durable
	evScopePush         // PushScope: opens a scope-balance obligation (PL012)
	evScopePop          // PopScope: discharges the thread's scope obligation
	evSeqBegin          // v := x.version.Load(): opens a seqlock re-check obligation (PL010)
	evSeqRecheck        // x.version.Load() ==/!= v (or a CAS on v): discharges it
	evSeqValid          // v tested against a literal: the bail-on-invalid path owes no re-check
	evKillVar           // identifier reassigned: seqlock sessions keyed on it die
)

// event is one obligation- or lock-relevant action inside a CFG node.
type event struct {
	pos    token.Pos
	kind   int
	key    string // rendered thread expression ("t", "w.t", ...); evSeqBegin/Recheck: "base|var"; evKillVar: identifier
	method string // Store/WriteRange/Flush/Fence/Persist

	calleeKeys []string // evCall: resolved call-graph candidate keys (sorted)
	threadArgs []string // evCall: thread-expression keys passed as args

	class string // evLock/evUnlock: lock class name
}

// cfgNode is one straight-line step of the function.
type cfgNode struct {
	id     int
	events []event
	succs  []*cfgNode
}

// cfg is the graph for one function body.
type cfg struct {
	nodes    []*cfgNode
	entry    *cfgNode
	exit     *cfgNode // target of every normal return / fallthrough end
	deferred []event  // defer-statement events, registration order
}

// cfgBuilder holds the in-progress graph and the break/continue
// context stack.
type cfgBuilder struct {
	fa   *funcAnalysis
	g    *cfg
	subs []*ast.FuncLit // non-deferred function literals, analyzed separately

	frames []*loopFrame
}

// loopFrame is one enclosing breakable construct.
type loopFrame struct {
	label        string
	isLoop       bool       // continue targets loops only
	continueTo   *cfgNode   // loop post/cond/header node
	breakSources []*cfgNode // nodes whose control jumps past the construct
}

func (b *cfgBuilder) newNode() *cfgNode {
	n := &cfgNode{id: len(b.g.nodes)}
	b.g.nodes = append(b.g.nodes, n)
	return n
}

func link(preds []*cfgNode, to *cfgNode) {
	for _, p := range preds {
		p.succs = append(p.succs, to)
	}
}

// buildCFG constructs the graph for body. Returned alongside is the
// list of function literals to analyze as sub-functions.
func (fa *funcAnalysis) buildCFG(body *ast.BlockStmt) (*cfg, []*ast.FuncLit) {
	b := &cfgBuilder{fa: fa, g: &cfg{}}
	b.g.entry = b.newNode()
	b.g.exit = b.newNode()
	frontier := b.buildStmts(body.List, []*cfgNode{b.g.entry})
	// Falling off the end of the body is a return.
	link(frontier, b.g.exit)
	return b.g, b.subs
}

// buildStmts threads the statement list, returning the frontier (the
// nodes whose control falls through to whatever follows).
func (b *cfgBuilder) buildStmts(stmts []ast.Stmt, preds []*cfgNode) []*cfgNode {
	for _, s := range stmts {
		preds = b.buildStmt(s, preds)
	}
	return preds
}

// simple creates one node holding the events of the given expressions/
// statements and wires preds to it.
func (b *cfgBuilder) simple(preds []*cfgNode, nodes ...ast.Node) []*cfgNode {
	n := b.newNode()
	for _, x := range nodes {
		if x != nil {
			n.events = append(n.events, b.extract(x)...)
		}
	}
	link(preds, n)
	return []*cfgNode{n}
}

// killNode inserts an evEADR node on an edge (control is entering an
// eADR-only region).
func (b *cfgBuilder) killNode(preds []*cfgNode, at token.Pos) []*cfgNode {
	n := b.newNode()
	n.events = append(n.events, event{pos: at, kind: evEADR})
	link(preds, n)
	return []*cfgNode{n}
}

func (b *cfgBuilder) buildStmt(s ast.Stmt, preds []*cfgNode) []*cfgNode {
	switch x := s.(type) {
	case nil:
		return preds

	case *ast.BlockStmt:
		return b.buildStmts(x.List, preds)

	case *ast.LabeledStmt:
		// The label attaches to the inner statement; loop/switch
		// builders read it from the frame we pre-register.
		return b.buildLabeled(x.Label.Name, x.Stmt, preds)

	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok && isTerminatorCall(call) {
			// panic/os.Exit/t.Fatal...: control never reaches the
			// function exit, so open obligations on this path are not
			// findings (the process or test goroutine dies here).
			b.simple(preds, x)
			return nil
		}
		return b.simple(preds, x)

	case *ast.ReturnStmt:
		n := b.newNode()
		for _, r := range x.Results {
			n.events = append(n.events, b.extract(r)...)
		}
		link(preds, n)
		link([]*cfgNode{n}, b.g.exit)
		return nil

	case *ast.BranchStmt:
		return b.buildBranch(x, preds)

	case *ast.DeferStmt:
		n := b.newNode()
		// Argument evaluation happens now, at the defer statement — the
		// idiom `defer t.PopScope(t.PushScope(s))` pushes here and pops
		// at exit, so the push event must land in this node.
		for _, arg := range x.Call.Args {
			n.events = append(n.events, b.extract(arg)...)
		}
		link(preds, n)
		b.g.deferred = append(b.g.deferred, b.extractDeferred(x.Call)...)
		return []*cfgNode{n}

	case *ast.GoStmt:
		// The goroutine body runs elsewhere: it is analyzed separately.
		n := b.newNode()
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			b.subs = append(b.subs, lit)
		}
		link(preds, n)
		return []*cfgNode{n}

	case *ast.IfStmt:
		return b.buildIf(x, preds)

	case *ast.ForStmt:
		return b.buildFor("", x, preds)

	case *ast.RangeStmt:
		return b.buildRange("", x, preds)

	case *ast.SwitchStmt:
		return b.buildSwitch("", x, preds)

	case *ast.TypeSwitchStmt:
		return b.buildTypeSwitch("", x, preds)

	case *ast.SelectStmt:
		return b.buildSelect("", x, preds)

	default:
		// Assign, Decl, IncDec, Send, Empty, ...: straight-line.
		return b.simple(preds, s)
	}
}

func (b *cfgBuilder) buildLabeled(label string, s ast.Stmt, preds []*cfgNode) []*cfgNode {
	switch x := s.(type) {
	case *ast.ForStmt:
		return b.buildFor(label, x, preds)
	case *ast.RangeStmt:
		return b.buildRange(label, x, preds)
	case *ast.SwitchStmt:
		return b.buildSwitch(label, x, preds)
	case *ast.TypeSwitchStmt:
		return b.buildTypeSwitch(label, x, preds)
	case *ast.SelectStmt:
		return b.buildSelect(label, x, preds)
	default:
		return b.buildStmt(s, preds)
	}
}

func (b *cfgBuilder) buildBranch(x *ast.BranchStmt, preds []*cfgNode) []*cfgNode {
	label := ""
	if x.Label != nil {
		label = x.Label.Name
	}
	switch x.Tok {
	case token.BREAK:
		if f := b.findFrame(label, false); f != nil {
			f.breakSources = append(f.breakSources, preds...)
		}
		return nil
	case token.CONTINUE:
		if f := b.findFrame(label, true); f != nil {
			link(preds, f.continueTo)
		}
		return nil
	case token.FALLTHROUGH:
		// Handled by the switch builder (it inspects the clause tail);
		// keep the frontier flowing.
		return preds
	case token.GOTO:
		// No goto in this codebase; treat as a return so obligations on
		// the path are still checked rather than silently dropped.
		link(preds, b.g.exit)
		return nil
	}
	return preds
}

// findFrame resolves a break (needLoop=false) or continue target.
func (b *cfgBuilder) findFrame(label string, needLoop bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) buildIf(x *ast.IfStmt, preds []*cfgNode) []*cfgNode {
	cond := b.simple(preds, x.Init, x.Cond)

	thenPreds := cond
	if condImpliesEADR(x.Cond) || condExcludesADR(x.Cond) {
		thenPreds = b.killNode(cond, x.Body.Pos())
	}
	frontier := b.buildStmts(x.Body.List, thenPreds)

	elsePreds := cond
	if condExcludesEADR(x.Cond) || condImpliesADR(x.Cond) {
		pos := x.End()
		if x.Else != nil {
			pos = x.Else.Pos()
		}
		elsePreds = b.killNode(cond, pos)
	}
	if x.Else != nil {
		frontier = append(frontier, b.buildStmt(x.Else, elsePreds)...)
	} else {
		frontier = append(frontier, elsePreds...)
	}
	return frontier
}

func (b *cfgBuilder) buildFor(label string, x *ast.ForStmt, preds []*cfgNode) []*cfgNode {
	if x.Init != nil {
		preds = b.simple(preds, x.Init)
	}
	cond := b.newNode()
	if x.Cond != nil {
		cond.events = b.extract(x.Cond)
	}
	link(preds, cond)

	var post *cfgNode
	continueTo := cond
	if x.Post != nil {
		post = b.newNode()
		post.events = b.extract(x.Post)
		link([]*cfgNode{post}, cond)
		continueTo = post
	}

	f := &loopFrame{label: label, isLoop: true, continueTo: continueTo}
	b.frames = append(b.frames, f)
	bodyFrontier := b.buildStmts(x.Body.List, []*cfgNode{cond})
	b.frames = b.frames[:len(b.frames)-1]

	if post != nil {
		link(bodyFrontier, post)
	} else {
		link(bodyFrontier, cond)
	}

	after := f.breakSources
	if x.Cond != nil {
		after = append(after, cond) // the condition's false edge
	}
	return after
}

func (b *cfgBuilder) buildRange(label string, x *ast.RangeStmt, preds []*cfgNode) []*cfgNode {
	head := b.newNode()
	head.events = b.extract(x.X)
	// Each iteration rebinds the loop variables, so facts keyed on them
	// (seqlock reads, wasted-persist address states) die at the header.
	for _, v := range []ast.Expr{x.Key, x.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			head.events = append(head.events, event{pos: x.Pos(), kind: evKillVar, key: id.Name})
		}
	}
	link(preds, head)

	f := &loopFrame{label: label, isLoop: true, continueTo: head}
	b.frames = append(b.frames, f)
	bodyFrontier := b.buildStmts(x.Body.List, []*cfgNode{head})
	b.frames = b.frames[:len(b.frames)-1]

	link(bodyFrontier, head)
	return append(f.breakSources, head) // empty-collection edge
}

func (b *cfgBuilder) buildSwitch(label string, x *ast.SwitchStmt, preds []*cfgNode) []*cfgNode {
	head := b.simple(preds, x.Init, x.Tag)
	f := &loopFrame{label: label}
	b.frames = append(b.frames, f)

	var frontier []*cfgNode
	var fallPreds []*cfgNode // frontier of a clause ending in fallthrough
	hasDefault := false
	clauses := x.Body.List
	for i, stmt := range clauses {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		casePreds := head
		if caseListEADR(cc.List) {
			casePreds = b.killNode(head, cc.Pos())
		}
		casePreds = append(append([]*cfgNode{}, casePreds...), fallPreds...)
		fallPreds = nil
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = i+1 < len(clauses)
				body = body[:n-1]
			}
		}
		cf := b.buildStmts(body, casePreds)
		if fallsThrough {
			fallPreds = cf
		} else {
			frontier = append(frontier, cf...)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	frontier = append(frontier, f.breakSources...)
	if !hasDefault {
		frontier = append(frontier, head...)
	}
	return frontier
}

func (b *cfgBuilder) buildTypeSwitch(label string, x *ast.TypeSwitchStmt, preds []*cfgNode) []*cfgNode {
	head := b.simple(preds, x.Init, x.Assign)
	f := &loopFrame{label: label}
	b.frames = append(b.frames, f)

	var frontier []*cfgNode
	hasDefault := false
	for _, stmt := range x.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		frontier = append(frontier, b.buildStmts(cc.Body, head)...)
	}
	b.frames = b.frames[:len(b.frames)-1]
	frontier = append(frontier, f.breakSources...)
	if !hasDefault {
		frontier = append(frontier, head...)
	}
	return frontier
}

func (b *cfgBuilder) buildSelect(label string, x *ast.SelectStmt, preds []*cfgNode) []*cfgNode {
	head := b.newNode()
	link(preds, head)
	f := &loopFrame{label: label}
	b.frames = append(b.frames, f)

	var frontier []*cfgNode
	for _, stmt := range x.Body.List {
		cc, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		casePreds := []*cfgNode{head}
		if cc.Comm != nil {
			casePreds = b.buildStmt(cc.Comm, casePreds)
		}
		frontier = append(frontier, b.buildStmts(cc.Body, casePreds)...)
	}
	b.frames = b.frames[:len(b.frames)-1]
	return append(frontier, f.breakSources...)
}

// isTerminatorCall reports whether the call never returns to the
// caller: panic, os.Exit, runtime.Goexit, log.Fatal*, and the testing
// methods that stop the test goroutine (so crash-injection tests that
// intentionally leave stores unpersisted before failing don't flag).
func isTerminatorCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "panic"
	case *ast.SelectorExpr:
		switch f.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln",
			"FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// --- eADR / ADR mode inference on branch conditions ---------------------

func isModeRef(e ast.Expr, name string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == name
	case *ast.SelectorExpr:
		return x.Sel.Name == name
	case *ast.ParenExpr:
		return isModeRef(x.X, name)
	}
	return false
}

func isEADRRef(e ast.Expr) bool { return isModeRef(e, "EADR") }
func isADRRef(e ast.Expr) bool  { return isModeRef(e, "ADR") }

// condImpliesEADR: the condition being true implies eADR (x == EADR,
// possibly under &&).
func condImpliesEADR(e ast.Expr) bool { return condEq(e, isEADRRef) }

// condImpliesADR: the condition being true implies ADR.
func condImpliesADR(e ast.Expr) bool { return condEq(e, isADRRef) }

// condExcludesEADR: the condition being true implies NOT eADR, i.e. its
// false edge is eADR-only (x != EADR).
func condExcludesEADR(e ast.Expr) bool { return condNeq(e, isEADRRef) }

// condExcludesADR: the condition being true implies NOT ADR (x != ADR),
// which in the two-mode model means eADR.
func condExcludesADR(e ast.Expr) bool { return condNeq(e, isADRRef) }

func condEq(e ast.Expr, ref func(ast.Expr) bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return condEq(x.X, ref)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL:
			return ref(x.X) || ref(x.Y)
		case token.LAND:
			return condEq(x.X, ref) || condEq(x.Y, ref)
		}
	}
	return false
}

func condNeq(e ast.Expr, ref func(ast.Expr) bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return condNeq(x.X, ref)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.NEQ:
			return ref(x.X) || ref(x.Y)
		case token.LAND:
			return condNeq(x.X, ref) || condNeq(x.Y, ref)
		}
	}
	return false
}

// caseListEADR reports whether a case clause fires only in eADR mode.
func caseListEADR(list []ast.Expr) bool {
	if len(list) == 0 {
		return false
	}
	for _, v := range list {
		if !isEADRRef(v) {
			return false
		}
	}
	return true
}
