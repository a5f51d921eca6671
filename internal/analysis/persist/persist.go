// Package persist is a static analyzer for the repository's persistent
// memory API (internal/pmem). It enforces the store→flush→fence
// discipline that every crash-consistent structure in this module
// hand-writes: a Store/WriteRange to PM is volatile under ADR until a
// Flush of its cachelines and an sfence (Fence) retire it, so a missed
// flush or fence silently voids the crash-consistency argument without
// failing any functional test.
//
// The analyzer is purely syntactic (go/ast + go/parser + go/token, no
// go/types, no external dependencies): it resolves "thread expressions"
// — values it can see are *pmem.Thread handles — from parameter
// declarations, struct fields declared *pmem.Thread anywhere in the
// analyzed set, and assignments from NewThread/Thread calls. The
// persistence rules run over a hand-rolled control-flow graph with a
// must-persist dataflow: obligations (store→flush, flush→fence) are
// propagated per CFG node with union join, so a finding means an
// obligation is still open on SOME path reaching a return — early
// returns, divergent branches, and loop back edges are analyzed
// soundly instead of by source position. The interprocedural layer is
// whole-program: a call graph over every analyzed package (receiver-
// type-qualified method resolution, Tarjan SCC collapse) carries
// discharge and lock summaries to a fixpoint, so a helper that
// persists through two more helpers — or a mutually-recursive pair —
// is credited at its call sites exactly like a direct Persist (wal's
// Append and AppendBatch, the tree's writeWholeLeaf). Call edges that
// cross a go statement are kept for reachability but excluded from
// lock-order propagation: those acquires happen on another
// goroutine's stack.
//
// # Rule catalog
//
// A rule stays only while a mutant of its own bug class in the kill
// matrix (internal/torture/mutants_test.go) is killed by that rule and
// by no test; DESIGN.md ("Scoring the gates") names the rows.
//
// PL001 — a Store/WriteRange with a path to return on which no Flush
// or Persist on the same thread intervenes: the store may never
// persist. The canonical failing shape is the early return a
// position-ordered linter cannot see:
//
//	t.Store(a, 1)
//	if full {
//		return // PL001: the store escapes unpersisted here
//	}
//	t.Persist(a, 8)
//
// Fix: discharge on every path — t.Persist(a, 8) before the branch,
// or on the early path too.
//
// PL002 — a Flush with a path to return on which no Fence or Persist
// on the same thread intervenes: the clwb is queued but never retired.
//
//	t.Store(a, 1)
//	t.Flush(a, 8) // PL002: no fence on the !sync path
//	if sync {
//		t.Fence()
//	}
//
// Fix: fence unconditionally, or use t.Persist(a, 8).
//
// PL006 — a lock acquire (direct, or one call level deep through a
// summary) that inverts the declared partial order
//
//	stw → workersMu → {gcMu, inner.mu, chunkdir.mu}
//
// Locks of equal rank are unordered among themselves, so holding one
// while taking another is also reported, as is re-acquiring a held
// lock:
//
//	tr.workersMu.Lock()
//	tr.stw.Lock() // PL006: the symmetric path deadlocks
//
// Fix: release before acquiring up-order, or take the locks in
// declared order.
//
// PL007 — a reasoned //persistlint:ignore directive that suppressed
// nothing this run: the analysis outgrew the excuse and the directive
// now only hides future regressions.
//
//	//persistlint:ignore PL001 caller persists this // PL007: stale
//	t.Store(a, 1)
//	t.Persist(a, 8)
//
// Fix: delete the directive. PL007 is itself not suppressible.
//
// PL010 — a seqlock read session violating the protocol: save the
// version (v := s.seq.Load()), bail when the saved value marks a
// write in progress, read the data, re-check the version and retry on
// mismatch. The rule demands the validity test and the re-check exist,
// and — via the obligation dataflow — that the re-check is reached on
// EVERY path from the load to a return:
//
//	v := s.seq.Load() // PL010: the cached path returns unre-checked
//	if cached {
//		return s.word
//	}
//	...re-check...
//
// Fix: re-check before every return (a CompareAndSwap on the saved
// version counts; returning the version hands the obligation to the
// caller). Version fields are typed-atomic fields named version/seq,
// plus //persistlint:seqlock declarations.
//
// PL012 — a Thread.PushScope with a path to return and no matching
// PopScope (defers included): the scope leaks onto the thread's next
// unrelated work and every later byte it writes is attributed to the
// wrong component. Paths that die in a panic owe nothing:
//
//	prev := t.PushScope(pmem.ScopeMeta) // PL012
//	if fail {
//		return err // the scope leaks here
//	}
//	t.PopScope(prev)
//
// Fix: defer t.PopScope(prev) at the push site (or the one-liner
// defer t.PopScope(t.PushScope(s))).
//
// PL014 — a lock-order inversion whose acquire is buried two or more
// calls deep. PL006 sees direct acquires and one-level summaries;
// PL014 lifts the same declared order over the whole call graph and
// names the witness chain, excluding acquires on the far side of a go
// statement (they run on another goroutine's stack and cannot invert
// against the caller's held set):
//
//	tr.gcMu.Lock()
//	tr.rebalance() // PL014: acquires workersMu via rebalance -> drainWorkers
//
// Fix: release before the call, or hoist the deep acquire to the
// declared order.
//
// Suppression:
//
//	//persistlint:ignore PL001 caller persists the whole leaf image
//
// on the finding's line, the line above it, or in the enclosing
// function's doc comment (which suppresses that code for the whole
// function). A directive without a reason does not suppress and is
// itself reported (PL000); a directive that suppresses nothing is
// reported as stale (PL007, not suppressible).
package persist

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Category codes. PL000 and PL007 are reserved for defects in the
// directives themselves.
const (
	CodeBadDirective   = "PL000"
	CodeStoreNoPersist = "PL001"
	CodeFlushNoFence   = "PL002"
	CodeLockOrder      = "PL006"
	CodeStaleIgnore    = "PL007"
	CodeSeqlock        = "PL010"
	CodeScopeBalance   = "PL012"
	CodeLockOrderGraph = "PL014"
)

// RuleTitles maps every rule code to a one-line description, for SARIF
// rule metadata and documentation generators.
func RuleTitles() map[string]string {
	return map[string]string{
		CodeBadDirective:   "persistlint directive without a justification",
		CodeStoreNoPersist: "PM store with a path to return that never flushes it",
		CodeFlushNoFence:   "PM flush with a path to return that never fences it",
		CodeLockOrder:      "lock acquisition inverts the declared order (direct or one call deep)",
		CodeStaleIgnore:    "persistlint:ignore directive that suppresses nothing",
		CodeSeqlock:        "seqlock read session with a path that never re-checks the version",
		CodeScopeBalance:   "PushScope with a path to return that never pops it",
		CodeLockOrderGraph: "lock acquisition inverts the declared order through the whole call graph",
	}
}

// pmemImportPath identifies the modeled-PM package; any import path
// with this suffix (plus the package's own files) activates analysis.
const pmemImportPath = "internal/pmem"

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Code string
	Func string // enclosing function, e.g. "(*Worker).leafBatchInsert"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s (in %s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Msg, f.Func)
}

// Stats summarizes the analysis run, for -stats self-diagnostics: CI
// logs should show coverage, not just silence.
type Stats struct {
	Files              int // source files parsed
	Functions          int // function bodies analyzed (literals included)
	CFGNodes           int // control-flow graph nodes built
	CallNodes          int // call-graph nodes (declared functions)
	CallEdges          int // resolved call-graph edges (candidate-deduped)
	CallSCCs           int // strongly connected components in the call graph
	DischargeSummaries int // declarations with a discharge summary
	LockSummaries      int // declarations with a transitive lock-acquire summary
	SeqlockReads       int // qualifying seqlock read sessions checked (PL010)
	ScopeSites         int // PushScope sites checked for balance (PL012)

	// Findings and FindingsByCode are filled from the findings Run
	// actually returned, so -stats totals reconcile with emitted
	// findings by construction (no separately incremented counters to
	// drift when a rule bails early).
	Findings       int
	FindingsByCode map[string]int
}

// Analyzer accumulates parsed files, then runs the rules over all of
// them; struct-field thread declarations are collected globally first
// so method bodies in one package recognize fields declared in another.
type Analyzer struct {
	fset  *token.FileSet
	files []*fileInfo

	// threadFields holds names of struct fields declared *pmem.Thread
	// anywhere in the analyzed set ("t" in practice): any selector
	// expression ending in one of these is treated as a thread.
	threadFields map[string]bool
	// lockOwnerFields maps field names declared with a mu-owning type
	// ("inner" → "innerTree", "dir" → "chunkDir") for resolving the
	// ambiguous field name "mu" through a selector chain.
	lockOwnerFields map[string]string

	// cg is the whole-program call graph (callgraph.go), built once per
	// Run before the summaries.
	cg *callGraph

	// summaries holds per-declaration discharge summaries computed to a
	// fixpoint over the call graph; lockDirect/lockTrans are the direct
	// and transitively closed lock-acquire sets, and lockVia the PL014
	// witness next-hops (see summary.go). All keyed by funcNode.key.
	summaries  map[string]summary
	lockDirect map[string][]string
	lockTrans  map[string][]string
	lockVia    map[string]map[string]string

	// structFields maps struct type name → field name → declared type
	// base name, for resolving the struct type of an expression.
	structFields map[string]map[string]string
	// seqFields holds names of version-counter fields whose readers
	// must follow the seqlock protocol (PL010): atomic.Uint32/Uint64
	// fields named version/seq, plus //persistlint:seqlock declarations.
	seqFields map[string]bool
	// scopeSites/seqSites count distinct PL012/PL010 program points for
	// -stats.
	scopeSites map[token.Pos]bool
	seqSites   map[token.Pos]bool

	stats Stats
}

type fileInfo struct {
	path       string
	dir        string // cleaned slash path of the declaring directory (call-graph pkg id)
	f          *ast.File
	pmemName   string            // local import name of internal/pmem ("" if absent)
	atomicName string            // local import name of sync/atomic ("" if absent)
	inPmem     bool              // file belongs to package pmem itself
	importPkg  map[string]string // import local name → analyzed package dir (resolveImports)
	ignores    map[int][]*directive
	seqDecls   map[int]bool // //persistlint:seqlock by line
}

// NewAnalyzer returns an empty analyzer with every rule enabled.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		fset:            token.NewFileSet(),
		threadFields:    map[string]bool{},
		lockOwnerFields: map[string]string{},
		structFields:    map[string]map[string]string{},
		seqFields:       map[string]bool{},
		scopeSites:      map[token.Pos]bool{},
		seqSites:        map[token.Pos]bool{},
	}
}

// Fset exposes the analyzer's file set (positions in Findings resolve
// against it).
func (a *Analyzer) Fset() *token.FileSet { return a.fset }

// Stats reports self-diagnostics for the most recent Run.
func (a *Analyzer) Stats() Stats { return a.stats }

// AddFile parses one source file (src may be nil to read from disk).
func (a *Analyzer) AddFile(path string, src []byte) error {
	var from any // a nil []byte must become a nil interface or ParseFile reads it as empty source
	if src != nil {
		from = src
	}
	f, err := parser.ParseFile(a.fset, path, from, parser.ParseComments)
	if err != nil {
		return err
	}
	fi := &fileInfo{
		path:   path,
		dir:    filepath.ToSlash(filepath.Clean(filepath.Dir(path))),
		f:      f,
		inPmem: f.Name.Name == "pmem",
	}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == pmemImportPath || strings.HasSuffix(p, "/"+pmemImportPath) {
			if imp.Name != nil {
				fi.pmemName = imp.Name.Name
			} else {
				fi.pmemName = "pmem"
			}
		}
		if p == "sync/atomic" {
			if imp.Name != nil {
				fi.atomicName = imp.Name.Name
			} else {
				fi.atomicName = "atomic"
			}
		}
	}
	fi.ignores = parseDirectives(a.fset, f)
	fi.seqDecls = parseSeqlockDirectives(a.fset, f)
	a.files = append(a.files, fi)
	return nil
}

// listGoFiles returns the .go files AddDir parses in dir, in ReadDir
// (sorted) order.
func listGoFiles(dir string, includeTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	return out, nil
}

// AddDir parses every .go file directly in dir. Test files are skipped
// unless includeTests is set (test code routinely leaves stores
// unpersisted on purpose, e.g. crash-injection harnesses).
func (a *Analyzer) AddDir(dir string, includeTests bool) error {
	files, err := listGoFiles(dir, includeTests)
	if err != nil {
		return err
	}
	for _, path := range files {
		if err := a.AddFile(path, nil); err != nil {
			return err
		}
	}
	return nil
}

// Run executes all rules and returns unsuppressed findings in a
// deterministic order (position, then code, then message).
func (a *Analyzer) Run() []Finding {
	a.stats = Stats{Files: len(a.files)}
	a.scopeSites = map[token.Pos]bool{}
	a.seqSites = map[token.Pos]bool{}
	for _, fi := range a.files {
		a.collectThreadFields(fi)
		a.collectStructInfo(fi)
	}
	a.resolveImports()
	a.buildCallGraph()
	a.computeSummaries()
	var out []Finding
	for _, fi := range a.files {
		out = append(out, a.checkFile(fi)...)
	}
	out = append(out, a.checkStaleDirectives()...)
	a.stats.SeqlockReads = len(a.seqSites)
	a.stats.ScopeSites = len(a.scopeSites)
	a.stats.Findings = len(out)
	a.stats.FindingsByCode = map[string]int{}
	for _, f := range out {
		a.stats.FindingsByCode[f.Code]++
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		if out[i].Code != out[j].Code {
			return out[i].Code < out[j].Code
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// checkStaleDirectives reports PL007 for every reasoned directive that
// suppressed nothing. Must run after every file has been checked (a
// directive may be consumed by any finding in its scope). Reasonless
// directives are PL000, not PL007. Not suppressible: the remedy is
// deleting the line, not excusing it.
func (a *Analyzer) checkStaleDirectives() []Finding {
	var out []Finding
	for _, fi := range a.files {
		for _, dirs := range fi.ignores {
			for _, d := range dirs {
				if d.reason == "" || d.used {
					continue
				}
				out = append(out, Finding{
					Pos:  d.pos,
					Code: CodeStaleIgnore,
					Func: "-",
					Msg:  fmt.Sprintf("persistlint:ignore %s suppresses nothing under the current analysis; delete the stale directive", d.code),
				})
			}
		}
	}
	return out
}

// isThreadType reports whether the type expression denotes
// *pmem.Thread (or *Thread inside package pmem).
func (fi *fileInfo) isThreadType(e ast.Expr) bool {
	st, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := st.X.(type) {
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && fi.pmemName != "" && id.Name == fi.pmemName && x.Sel.Name == "Thread"
	case *ast.Ident:
		return fi.inPmem && x.Name == "Thread"
	}
	return false
}

// collectThreadFields records struct field names declared
// *pmem.Thread or a mu-owning lock type.
func (a *Analyzer) collectThreadFields(fi *fileInfo) {
	ast.Inspect(fi.f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			switch {
			case fi.isThreadType(fld.Type):
				for _, name := range fld.Names {
					a.threadFields[name.Name] = true
				}
			default:
				if base := typeBaseName(fld.Type); muOwnerClass[base] != "" {
					for _, name := range fld.Names {
						a.lockOwnerFields[name.Name] = base
					}
				}
			}
		}
		return true
	})
}

// checkFile runs per-function rules over one file.
func (a *Analyzer) checkFile(fi *fileInfo) []Finding {
	var out []Finding
	for _, decl := range fi.f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fa := newFuncAnalysis(a, fi, fd)
		if a.cg != nil {
			if n := a.cg.byDecl[fd]; n != nil && n.fa != nil {
				fa = n.fa // reuse the environment built for the call graph
			}
		}
		out = append(out, fa.run()...)
	}
	// Report malformed directives (missing reason) once per site.
	for line, dirs := range fi.ignores {
		for _, d := range dirs {
			if d.reason == "" {
				out = append(out, Finding{
					Pos:  d.pos,
					Code: CodeBadDirective,
					Func: "-",
					Msg:  fmt.Sprintf("persistlint:ignore %s on line %d has no reason; suppression requires a justification", d.code, line),
				})
			}
		}
	}
	return out
}

// funcAnalysis is the per-function state shared by the rules. For a
// function literal it shares the declaration's environment (threads,
// lock owners, types) extended with the literal's own parameters.
type funcAnalysis struct {
	an    *Analyzer
	fi    *fileInfo
	fn    *ast.FuncDecl  // enclosing declaration (doc-scope suppression)
	node  *funcNode      // call-graph node of the declaration (nil pre-graph)
	body  *ast.BlockStmt // the body under analysis (decl or literal)
	fname string         // display name, e.g. "(*Worker).upsert.func1"

	threads  map[string]bool   // identifiers known to hold *pmem.Thread
	muOwners map[string]string // identifiers whose type owns a "mu" field → class
	varTypes map[string]string // identifiers with a resolvable struct type base name

	// seqQualified marks seqlock-session keys whose missing re-check is
	// reportable (PL010), set by checkSeqlock before the dataflow runs.
	seqQualified map[string]bool
}

// newFuncAnalysis builds the analysis state for one declared function.
func newFuncAnalysis(a *Analyzer, fi *fileInfo, fd *ast.FuncDecl) *funcAnalysis {
	fa := &funcAnalysis{an: a, fi: fi, fn: fd, body: fd.Body, threads: map[string]bool{}}
	if a.cg != nil {
		fa.node = a.cg.byDecl[fd]
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		fa.fname = fd.Name.Name
	} else {
		fa.fname = "(" + renderExpr(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	fa.collectThreadVars()
	fa.collectLockOwnerTypes()
	fa.collectVarTypes()
	return fa
}

// forLit derives the analysis state for the idx-th function literal of
// this body: same environment, plus the literal's typed parameters.
func (fa *funcAnalysis) forLit(lit *ast.FuncLit, idx int) *funcAnalysis {
	sub := &funcAnalysis{
		an: fa.an, fi: fa.fi, fn: fa.fn, node: fa.node,
		body:     lit.Body,
		fname:    fmt.Sprintf("%s.func%d", fa.fname, idx+1),
		threads:  copyBoolMap(fa.threads),
		muOwners: copyStringMap(fa.muOwners),
		varTypes: copyStringMap(fa.varTypes),
	}
	for _, fld := range lit.Type.Params.List {
		switch {
		case fa.fi.isThreadType(fld.Type):
			for _, n := range fld.Names {
				sub.threads[n.Name] = true
			}
		default:
			if cls, ok := muOwnerClass[typeBaseName(fld.Type)]; ok {
				for _, n := range fld.Names {
					sub.muOwners[n.Name] = cls
				}
			}
		}
		if t := typeBaseName(fld.Type); t != "" {
			for _, n := range fld.Names {
				sub.varTypes[n.Name] = t
			}
		}
	}
	return sub
}

func copyBoolMap(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyStringMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (fa *funcAnalysis) name() string { return fa.fname }

// collectThreadVars seeds the thread-identifier set from the parameter
// list and from assignments whose right side is a thread expression or
// a NewThread()/Thread() call. The whole declaration body is scanned,
// closures included, so literals inherit the environment.
func (fa *funcAnalysis) collectThreadVars() {
	for _, fld := range fa.fn.Type.Params.List {
		if fa.fi.isThreadType(fld.Type) {
			for _, n := range fld.Names {
				fa.threads[n.Name] = true
			}
		}
	}
	if fa.fn.Recv != nil {
		for _, fld := range fa.fn.Recv.List {
			if fa.fi.isThreadType(fld.Type) {
				for _, n := range fld.Names {
					fa.threads[n.Name] = true
				}
			}
		}
	}
	ast.Inspect(fa.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, isIdent := as.Lhs[i].(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			if fa.isThreadExpr(rhs) {
				fa.threads[id.Name] = true
			}
		}
		return true
	})
}

// isThreadExpr reports whether e syntactically denotes a *pmem.Thread:
// a known thread identifier, a selector ending in a known thread field,
// or a call of a method named Thread (zero-arg accessor) or NewThread.
func (fa *funcAnalysis) isThreadExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fa.isThreadExpr(x.X)
	case *ast.Ident:
		return fa.threads[x.Name]
	case *ast.SelectorExpr:
		return fa.an.threadFields[x.Sel.Name]
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "NewThread" {
				return true
			}
			if sel.Sel.Name == "Thread" && len(x.Args) == 0 {
				return true
			}
		}
	}
	return false
}

// renderExpr prints the small expression forms the analyzer deals in
// (identifier/selector chains, calls, stars); it exists so findings can
// name the thread value without importing go/printer.
func renderExpr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderExpr(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + renderExpr(x.X)
	case *ast.ParenExpr:
		return "(" + renderExpr(x.X) + ")"
	case *ast.CallExpr:
		return renderExpr(x.Fun) + "()"
	case *ast.IndexExpr:
		return renderExpr(x.X) + "[...]"
	}
	return "?"
}

// threadCall decomposes a call into (thread key, method name) when the
// callee is a method on a thread expression; ok is false otherwise.
func (fa *funcAnalysis) threadCall(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	if !fa.isThreadExpr(sel.X) {
		return "", "", false
	}
	return renderExpr(sel.X), sel.Sel.Name, true
}

// suppressed checks the three suppression scopes for a finding and
// marks the consumed directive (PL007 reports the never-consumed ones).
func (fa *funcAnalysis) suppressed(code string, line int) bool {
	if directiveMatches(fa.fi.ignores[line], code) || directiveMatches(fa.fi.ignores[line-1], code) {
		return true
	}
	// Function-scope: directive in the func doc comment. Looked up
	// through the file index so usage marks stick to the shared
	// directive instances.
	if fa.fn.Doc != nil {
		for _, c := range fa.fn.Doc.List {
			if directiveMatches(fa.fi.ignores[fa.an.fset.Position(c.Pos()).Line], code) {
				return true
			}
		}
	}
	return false
}

func (fa *funcAnalysis) finding(code string, pos token.Pos, msg string) (Finding, bool) {
	p := fa.an.fset.Position(pos)
	if fa.suppressed(code, p.Line) {
		return Finding{}, false
	}
	return Finding{Pos: p, Code: code, Func: fa.name(), Msg: msg}, true
}
