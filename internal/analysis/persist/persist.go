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
// PL003 — a Flush/Persist only reachable inside an eADR-only branch.
// In the eADR persistence domain stores are durable at retirement, so
// the flush is dead code that suggests a misunderstood mode split:
//
//	if mode == pmem.EADR {
//		t.Flush(a, 8) // PL003: no-op under eADR
//		t.Fence()
//	}
//
// Fix: invert the condition (flush under ADR), or delete the branch.
//
// PL004 — a *pmem.Thread or *obs.Handle crossing a goroutine boundary
// (captured by a go-closure, passed as a go-call argument, or sent on
// a channel). Both types are documented single-owner:
//
//	go func() { t.Persist(a, 8) }() // PL004: t crosses goroutines
//
// Fix: have the goroutine own its handle — pool.NewThread(socket)
// inside the closure.
//
// PL005 — a Store that publishes a PM pointer (a value containing
// uint64(addr)) while earlier writes on the same thread are not yet
// fenced: a crash between the publish and the fence recovers a
// pointer to unpersisted bytes (the split-ordering bug the tree's
// logless leaf split is built around):
//
//	t.Store(newLeaf, img)
//	t.Store(meta, uint64(newLeaf)) // PL005: newLeaf image unfenced
//	t.Persist(meta, 8)
//
// Fix: t.Persist(newLeaf, 8) before the publish.
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
// PL008 — a struct field accessed through the functional sync/atomic
// API anywhere (atomic.AddUint64(&d.ticks, 1)) and read or written
// plainly elsewhere: the plain access can observe a torn or stale
// value on schedules the race detector never sees. Matching is
// owner-aware — the same field name on an unrelated struct is not
// indicted — and a plain access provably holding the field's declared
// guard (the lock-for-writes protocol) or sitting in a constructor is
// exempt:
//
//	atomic.AddUint64(&d.ticks, 1) // writer
//	...
//	return d.ticks // PL008: racy plain read of an atomic field
//
// Fix: atomic.LoadUint64(&d.ticks), or take the field's guard.
//
// PL009 — an access of a lock-guarded field without the guard held.
// The guard is either declared (//persistlint:guardedby CLASS on the
// field declaration, enforced on every non-constructor access) or
// inferred: when at least 4 judged accesses exist and 75%+ of them
// hold one declared lock class, the outliers holding nothing are the
// accesses a lock-free refactor would silently race:
//
//	r.gcMu.Lock(); r.items = append(r.items, v); r.gcMu.Unlock() // ×3
//	...
//	return r.items[0] // PL009: every other access takes gcMu first
//
// Fix: take the lock, or declare the real protocol on the field.
// A guardedby directive naming an unknown class is PL000.
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
// PL011 — provably wasted persistence work, the inverse of
// PL001/PL002, as a must-analysis: a Flush of an address not stored to
// since its last flush on every path, a Persist of an address clean
// since the last fence, a Fence with nothing to order. Each one is a
// full XPBuffer round-trip (or pipeline drain) spent on nothing:
//
//	t.Store(a, 1)
//	t.Flush(a, 8)
//	t.Flush(a, 8) // PL011: the line is provably still clean
//	t.Fence()
//
// Fix: delete the duplicate. Facts die at joins that disagree, at any
// call, and at any computed address rendering, so a maybe-dirty line
// is never reported.
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
// PL013 — a PM address (or its uint64 image) stored into a heap
// structure, sent on a channel, or handed to a goroutine while the
// bytes behind it still carry an unfenced store on the same thread.
// Whoever receives the address can chase it — through a DRAM cache, a
// work queue, another goroutine — to data a crash throws away, long
// after the publishing function returned clean:
//
//	t.Store(leaf, img)
//	cache.slots["k"] = leaf // PL013: leaf's image is not yet fenced
//	t.Persist(leaf, 8)
//
// Fix: t.Persist(leaf, 8) before the address escapes. Plain call
// arguments do not count as escapes (the callee is analyzed in its
// own right); container writes, sends, and goroutine hand-offs do.
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
// PL015 — a read reachable from a recovery or optimistic-read entry
// point of a field some writer publishes before fencing it. The
// writer-side bug is PL005; PL015 is the reader-side blast radius: the
// recovery path (any recover* function, or a function marked
// //persistlint:entrypoint, or a seqlock read session) can chase a
// durable pointer into unpersisted bytes:
//
//	func recoverChain(t *pmem.Thread, a pmem.Addr) {
//		next := t.Load(a) // PL015: a writer publishes "next" unfenced
//		...
//	}
//
// Fix: fence before the publish (clears both PL005 and PL015), or
// re-validate the read against a version after chasing it.
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
	CodeBadDirective         = "PL000"
	CodeStoreNoPersist       = "PL001"
	CodeFlushNoFence         = "PL002"
	CodeDeadFlush            = "PL003"
	CodeThreadEscape         = "PL004"
	CodePublishBeforePersist = "PL005"
	CodeLockOrder            = "PL006"
	CodeStaleIgnore          = "PL007"
	CodeAtomicMix            = "PL008"
	CodeGuardedBy            = "PL009"
	CodeSeqlock              = "PL010"
	CodeWastedPersist        = "PL011"
	CodeScopeBalance         = "PL012"
	CodeEscapeBeforePersist  = "PL013"
	CodeLockOrderGraph       = "PL014"
	CodeReadAfterPublish     = "PL015"
)

// AllCodes lists every rule code, for CLI toggle validation.
func AllCodes() []string {
	return []string{
		CodeBadDirective, CodeStoreNoPersist, CodeFlushNoFence,
		CodeDeadFlush, CodeThreadEscape, CodePublishBeforePersist,
		CodeLockOrder, CodeStaleIgnore, CodeAtomicMix, CodeGuardedBy,
		CodeSeqlock, CodeWastedPersist, CodeScopeBalance,
		CodeEscapeBeforePersist, CodeLockOrderGraph, CodeReadAfterPublish,
	}
}

// RuleTitles maps every rule code to a one-line description, for SARIF
// rule metadata and documentation generators.
func RuleTitles() map[string]string {
	return map[string]string{
		CodeBadDirective:         "persistlint directive without a justification",
		CodeStoreNoPersist:       "PM store with a path to return that never flushes it",
		CodeFlushNoFence:         "PM flush with a path to return that never fences it",
		CodeDeadFlush:            "flush/persist under an eADR-only branch is a no-op",
		CodeThreadEscape:         "single-owner *pmem.Thread/*obs.Handle crosses a goroutine boundary",
		CodePublishBeforePersist: "PM pointer published while its pointee is unfenced",
		CodeLockOrder:            "lock acquisition inverts the declared order (direct or one call deep)",
		CodeStaleIgnore:          "persistlint:ignore directive that suppresses nothing",
		CodeAtomicMix:            "plain access to a field used with sync/atomic elsewhere",
		CodeGuardedBy:            "access to a lock-guarded field without its guard held",
		CodeSeqlock:              "seqlock read session with a path that never re-checks the version",
		CodeWastedPersist:        "provably redundant flush/fence/persist",
		CodeScopeBalance:         "PushScope with a path to return that never pops it",
		CodeEscapeBeforePersist:  "PM address escapes into a heap structure, channel, or goroutine while unfenced",
		CodeLockOrderGraph:       "lock acquisition inverts the declared order through the whole call graph",
		CodeReadAfterPublish:     "recovery/optimistic-read path reads a slot some writer publishes before fencing",
	}
}

// pmemImportPath identifies the modeled-PM package; any import path
// with this suffix (plus the package's own files) activates analysis.
const pmemImportPath = "internal/pmem"

// obsImportPath identifies the observability package, whose *Handle is
// a second single-owner type PL004 polices.
const obsImportPath = "internal/obs"

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
	AtomicFields       int // fields accessed via functional sync/atomic (PL008 domain)
	GuardedFields      int // fields with a declared or inferred lock guard (PL009)
	FieldAccesses      int // tracked field accesses collected for PL008/PL009
	SeqlockReads       int // qualifying seqlock read sessions checked (PL010)
	ScopeSites         int // PushScope sites checked for balance (PL012)
	EntryPoints        int // PL015 entry points (recovery, declared, seqlock readers)

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
	// handleFields is the same for struct fields declared *obs.Handle.
	handleFields map[string]bool
	// addrFields is the same for fields declared pmem.Addr (PL005's
	// notion of "a PM pointer lives here").
	addrFields map[string]bool
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

	// hotPublishes/loadSites/seqFns drive PL015: slots published while
	// obligations were open, thread Load sites, and functions containing
	// seqlock read sessions (optimistic-read entry points). Collected
	// during the rule pass, judged afterwards (readpub.go).
	hotPublishes map[string][]publishSite
	loadSites    []loadSite
	seqFns       map[string]bool

	// disabled holds rule codes switched off for this run (CLI
	// toggles). Disabled rules neither report nor mark directives used,
	// and their directives are exempt from PL007 staleness.
	disabled map[string]bool

	// structFields maps struct type name → field name → declared type
	// base name, for resolving the owning struct of a field access.
	structFields map[string]map[string]string
	// structLocks maps struct type name → classed lock fields it
	// declares (guard candidates for its sibling fields).
	structLocks map[string][]string
	// typedAtomicFields holds bare names of fields declared with a
	// sync/atomic value type (atomic.Uint64, atomic.Bool, ...): the
	// type system already forbids plain access, so PL008/PL009 skip
	// them.
	typedAtomicFields map[string]bool
	// atomicFields holds bare names of fields accessed through the
	// functional sync/atomic API (atomic.LoadUint64(&x.f), ...) —
	// PL008's domain.
	atomicFields map[string]bool
	// seqFields holds names of version-counter fields whose readers
	// must follow the seqlock protocol (PL010): atomic.Uint32/Uint64
	// fields named version/seq, plus //persistlint:seqlock declarations.
	seqFields map[string]bool
	// guardDecls maps "Type.field" to the lock class declared with
	// //persistlint:guardedby; guardDeclPos records the declaration
	// site for error reporting.
	guardDecls   map[string]string
	guardDeclPos map[string]token.Pos
	// trackedFields is the union of field names whose accesses are
	// collected for PL008/PL009.
	trackedFields map[string]bool
	// accesses is every tracked field access with its held-lock
	// snapshot, in deterministic collection order.
	accesses []*fieldAccess
	// inferredGuards maps "Type.field" to the dominant lock class
	// inferred by PL009 (guardDecls take precedence).
	inferredGuards map[string]string
	// scopeSites/seqSites count distinct PL012/PL010 program points for
	// -stats.
	scopeSites map[token.Pos]bool
	seqSites   map[token.Pos]bool

	stats Stats
}

// fieldAccess is one collected access to a tracked struct field.
type fieldAccess struct {
	pos    token.Pos
	fa     *funcAnalysis
	field  string // bare field name
	owner  string // resolved owning struct type name ("" if unresolved)
	atomic bool   // access went through sync/atomic (functional or typed)
	held   map[string]bool
	ctor   bool // access sits in a constructor/init path
}

type fileInfo struct {
	path       string
	dir        string // cleaned slash path of the declaring directory (call-graph pkg id)
	f          *ast.File
	pmemName   string            // local import name of internal/pmem ("" if absent)
	obsName    string            // local import name of internal/obs ("" if absent)
	atomicName string            // local import name of sync/atomic ("" if absent)
	inPmem     bool              // file belongs to package pmem itself
	inObs      bool              // file belongs to package obs itself
	importPkg  map[string]string // import local name → analyzed package dir (resolveImports)
	ignores    map[int][]*directive
	guards     map[int]*guardDecl // //persistlint:guardedby by line
	seqDecls   map[int]bool       // //persistlint:seqlock by line
}

// NewAnalyzer returns an empty analyzer with every rule enabled.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		fset:              token.NewFileSet(),
		threadFields:      map[string]bool{},
		handleFields:      map[string]bool{},
		addrFields:        map[string]bool{},
		lockOwnerFields:   map[string]string{},
		disabled:          map[string]bool{},
		structFields:      map[string]map[string]string{},
		structLocks:       map[string][]string{},
		typedAtomicFields: map[string]bool{},
		atomicFields:      map[string]bool{},
		seqFields:         map[string]bool{},
		guardDecls:        map[string]string{},
		guardDeclPos:      map[string]token.Pos{},
		trackedFields:     map[string]bool{},
		scopeSites:        map[token.Pos]bool{},
		seqSites:          map[token.Pos]bool{},
	}
}

// Disable switches the given rule codes off for subsequent Runs. PL000
// (malformed directives) cannot be disabled.
func (a *Analyzer) Disable(codes ...string) {
	for _, c := range codes {
		if c != CodeBadDirective {
			a.disabled[c] = true
		}
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
		inObs:  f.Name.Name == "obs",
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
		if p == obsImportPath || strings.HasSuffix(p, "/"+obsImportPath) {
			if imp.Name != nil {
				fi.obsName = imp.Name.Name
			} else {
				fi.obsName = "obs"
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
	fi.guards, fi.seqDecls = parseFieldDirectives(a.fset, f)
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
	a.accesses = nil
	a.scopeSites = map[token.Pos]bool{}
	a.seqSites = map[token.Pos]bool{}
	a.hotPublishes = map[string][]publishSite{}
	a.loadSites = nil
	a.seqFns = map[string]bool{}
	for _, fi := range a.files {
		a.collectThreadFields(fi)
		a.collectStructInfo(fi)
	}
	for _, fi := range a.files {
		a.collectAtomicUses(fi)
	}
	a.buildTrackedFields()
	a.resolveImports()
	a.buildCallGraph()
	a.computeSummaries()
	var out []Finding
	for _, fi := range a.files {
		out = append(out, a.checkFile(fi)...)
	}
	a.inferGuards()
	out = append(out, a.checkAtomicConsistency()...)
	out = append(out, a.checkGuardedBy()...)
	out = append(out, a.checkReadAfterPublish()...)
	out = append(out, a.checkStaleDirectives()...)
	a.stats.AtomicFields = len(a.atomicFields)
	a.stats.FieldAccesses = len(a.accesses)
	a.stats.GuardedFields = len(a.inferredGuards) + len(a.guardDecls)
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
	if a.disabled[CodeStaleIgnore] {
		return nil
	}
	var out []Finding
	for _, fi := range a.files {
		for _, dirs := range fi.ignores {
			for _, d := range dirs {
				if d.reason == "" || d.used || a.directiveCoversDisabled(d) {
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

// directiveCoversDisabled reports whether the directive names a rule
// that is switched off this run: with the rule silent the directive
// cannot possibly match, so calling it stale would be wrong.
func (a *Analyzer) directiveCoversDisabled(d *directive) bool {
	for _, c := range d.codes {
		if (c == "*" && len(a.disabled) > 0) || a.disabled[c] {
			return true
		}
	}
	return false
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

// isHandleType reports whether the type expression denotes
// *obs.Handle (or *Handle inside package obs).
func (fi *fileInfo) isHandleType(e ast.Expr) bool {
	st, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := st.X.(type) {
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && fi.obsName != "" && id.Name == fi.obsName && x.Sel.Name == "Handle"
	case *ast.Ident:
		return fi.inObs && x.Name == "Handle"
	}
	return false
}

// collectThreadFields records struct field names declared
// *pmem.Thread, *obs.Handle, pmem.Addr, or a mu-owning lock type.
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
			case fi.isHandleType(fld.Type):
				for _, name := range fld.Names {
					a.handleFields[name.Name] = true
				}
			case fi.isAddrType(fld.Type):
				for _, name := range fld.Names {
					a.addrFields[name.Name] = true
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
// addrs, lock owners) extended with the literal's own parameters.
type funcAnalysis struct {
	an    *Analyzer
	fi    *fileInfo
	fn    *ast.FuncDecl  // enclosing declaration (doc-scope suppression)
	node  *funcNode      // call-graph node of the declaration (nil pre-graph)
	body  *ast.BlockStmt // the body under analysis (decl or literal)
	fname string         // display name, e.g. "(*Worker).upsert.func1"

	threads  map[string]bool   // identifiers known to hold *pmem.Thread
	handles  map[string]bool   // identifiers known to hold *obs.Handle
	addrs    map[string]bool   // identifiers known to hold pmem.Addr
	muOwners map[string]string // identifiers whose type owns a "mu" field → class
	varTypes map[string]string // identifiers with a resolvable struct type base name
	ctor     bool              // body is a constructor/init path (PL008/PL009 exempt)

	// seqQualified marks seqlock-session keys whose missing re-check is
	// reportable (PL010), set by checkSeqlock before the dataflow runs.
	seqQualified map[string]bool
}

// newFuncAnalysis builds the analysis state for one declared function.
func newFuncAnalysis(a *Analyzer, fi *fileInfo, fd *ast.FuncDecl) *funcAnalysis {
	fa := &funcAnalysis{an: a, fi: fi, fn: fd, body: fd.Body, threads: map[string]bool{}, handles: map[string]bool{}}
	if a.cg != nil {
		fa.node = a.cg.byDecl[fd]
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		fa.fname = fd.Name.Name
	} else {
		fa.fname = "(" + renderExpr(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	fa.collectThreadVars()
	fa.collectAddrVars()
	fa.collectLockOwnerTypes()
	fa.collectVarTypes()
	fa.ctor = isCtorName(fa.fname)
	return fa
}

// isCtorName reports whether the function name denotes a constructor
// or init path: struct fields are routinely filled before the value is
// published, so guard rules do not apply there.
func isCtorName(fname string) bool {
	name := fname
	if i := strings.LastIndex(name, ")."); i >= 0 {
		name = name[i+2:]
	}
	if i := strings.Index(name, "."); i >= 0 {
		name = name[:i] // closures inherit the declaring function's role
	}
	for _, p := range []string{"new", "New", "open", "Open", "init", "Init", "make", "Make"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// forLit derives the analysis state for the idx-th function literal of
// this body: same environment, plus the literal's typed parameters.
func (fa *funcAnalysis) forLit(lit *ast.FuncLit, idx int) *funcAnalysis {
	sub := &funcAnalysis{
		an: fa.an, fi: fa.fi, fn: fa.fn, node: fa.node,
		body:     lit.Body,
		fname:    fmt.Sprintf("%s.func%d", fa.fname, idx+1),
		threads:  copyBoolMap(fa.threads),
		handles:  copyBoolMap(fa.handles),
		addrs:    copyBoolMap(fa.addrs),
		muOwners: copyStringMap(fa.muOwners),
		varTypes: copyStringMap(fa.varTypes),
		ctor:     fa.ctor,
	}
	for _, fld := range lit.Type.Params.List {
		switch {
		case fa.fi.isThreadType(fld.Type):
			for _, n := range fld.Names {
				sub.threads[n.Name] = true
			}
		case fa.fi.isHandleType(fld.Type):
			for _, n := range fld.Names {
				sub.handles[n.Name] = true
			}
		case fa.fi.isAddrType(fld.Type):
			for _, n := range fld.Names {
				sub.addrs[n.Name] = true
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
		if fa.fi.isHandleType(fld.Type) {
			for _, n := range fld.Names {
				fa.handles[n.Name] = true
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
			} else if fa.isHandleExpr(rhs) {
				fa.handles[id.Name] = true
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

// isHandleExpr reports whether e syntactically denotes an *obs.Handle:
// a known handle identifier, a selector ending in a known handle field,
// or a NewHandle call. The call heuristic only applies in files that
// import internal/obs (index.Index also has a NewHandle method; files
// using only that interface are not confused).
func (fa *funcAnalysis) isHandleExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fa.isHandleExpr(x.X)
	case *ast.Ident:
		return fa.handles[x.Name]
	case *ast.SelectorExpr:
		return fa.an.handleFields[x.Sel.Name]
	case *ast.CallExpr:
		if fa.fi.obsName == "" && !fa.fi.inObs {
			return false
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewHandle" {
			return true
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
	if fa.an.disabled[code] {
		return Finding{}, false
	}
	p := fa.an.fset.Position(pos)
	if fa.suppressed(code, p.Line) {
		return Finding{}, false
	}
	return Finding{Pos: p, Code: code, Func: fa.name(), Msg: msg}, true
}
