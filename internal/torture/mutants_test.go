package torture_test

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// edit is one exact source substitution; old must occur exactly once in
// file (a slash path from the module root).
type edit struct{ file, old, new string }

// mutant is one bug in the crash-consistency, read or locking protocol:
// a named row written by hand, or a row generated from a persist point.
type mutant struct {
	name string
	// class names the mutant's bug class (one of bugClasses), so every
	// class is scored on bugs of its own kind.
	class string
	edits []edit
	// unit is the unit column: go test argument lists of the mutated
	// package's own -short tests (and of the packages built on it, for
	// internal/pmleaf). The race column runs the same lists under -race.
	unit [][]string
}

// coreUnit is the unit column of the internal/core mutants: the
// targeted crash-order, group-logging and reclamation-epoch tests, with
// the crash suite's sweeps (internal/core/crashtest) on the fixed-key
// and var-KV tree rows. The flush-boundary matrices
// (TestCrashAtEveryFlushBoundary*) are left out for time, and the rest
// of core's -short suite races goroutines, so its verdicts on a mutant
// would depend on the schedule. The hash table's row runs in
// internal/cclhash's own -short suite (unitHash), matrices included.
var coreUnit = []string{"-short", "-run", "^(TestCrash[^A]|TestGroup|TestEpoch)", "./internal/core"}

// unitFor returns the unit column of a mutant of the package at dir.
// internal/pmleaf is the line format under the tree and the hash
// table, so its rows run their suites too.
func unitFor(dir string) [][]string {
	switch dir {
	case "internal/core":
		return [][]string{coreUnit}
	case "internal/pmleaf":
		return [][]string{{"-short", "./internal/pmleaf"}, coreUnit, {"-short", "./internal/cclhash"}}
	}
	return [][]string{{"-short", "./" + dir}}
}

var (
	unitCore = unitFor("internal/core")
	unitWAL  = unitFor("internal/wal")
	unitHash = unitFor("internal/cclhash")
	unitPmem = unitFor("internal/pmem")
)

// bugClasses are the kinds of bug the matrix scores: every row is of
// one, and every one has a row.
var bugClasses = []string{
	"store-unflushed",   // a PM store no flush covers
	"flush-unfenced",    // a flush no fence retires before its data is relied on
	"publish-order",     // a pointer or header durable before what it names
	"redundant-persist", // a flush or fence that no crash needs
	"eadr-only-flush",   // a persist that runs only where stores are already durable
	"thread-shared",     // one pmem.Thread used by two goroutines
	"data-race",         // shared state accessed without its atomic or lock
	"lock-order",        // two locks taken in opposite orders
	"seqlock",           // an optimistic read that skips its validation
	"epoch",             // a reclamation epoch pinned too late or not at all
	"scope",             // an attribution scope pushed and never popped
	"stamp",             // a leaf stamp that can go backwards
	"unlogged-ack",      // an acknowledged write with no durable record
	"replay",            // recovery replaying the wrong records
}

// named is the hand-written part of the matrix: bugs that are not one
// call away from the source, and one row of its own class for every
// bug class the generator does not produce.
var named = []mutant{
	{
		name: "wal-append-nofence", class: "flush-unfenced",
		edits: []edit{{"internal/wal/wal.go",
			"\tflushSpan()\n\tt.Fence()\n\treturn addr, nil\n",
			"\tflushSpan()\n\treturn addr, nil\n"}},
		unit: unitWAL,
	},
	{
		// The yields put a preemption point between the unsynchronized
		// slot loads, so a concurrent writer tears them on any runner.
		name: "read-verdict-ignored", class: "seqlock",
		edits: []edit{
			{"internal/core/worker.go", "\tok := n.validateRead(ver)\n", "\tn.validateRead(ver)\n"},
			{"internal/core/worker.go",
				"\t\tw.segAcc[obs.SegValidate] += c\n\t}\n\treturn ok\n}",
				"\t\tw.segAcc[obs.SegValidate] += c\n\t}\n\treturn true\n}"},
			{"internal/core/worker.go", "\t\tv := n.slotVal(i)\n", "\t\truntime.Gosched()\n\t\tv := n.slotVal(i)\n"},
			{"internal/core/worker.go",
				"\t\t\tcands = append(cands, scanCand{KV{k, n.slotVal(i)}, true})",
				"\t\t\truntime.Gosched()\n\t\t\tcands = append(cands, scanCand{KV{k, n.slotVal(i)}, true})"},
		},
		unit: unitCore,
	},
	{
		// The buffer-hit path's recheck goes, with the same yield.
		name: "read-recheck-dropped", class: "seqlock",
		edits: []edit{{"internal/core/worker.go",
			"\t\tv := n.slotVal(i)\n\t\tif !w.readRecheck(n, ver) {\n\t\t\treturn 0, false, false\n\t\t}\n",
			"\t\truntime.Gosched()\n\t\tv := n.slotVal(i)\n"}},
		unit: unitCore,
	},
	{
		// The inner tree's descent returns whatever it reached, torn by
		// a concurrent split or merge or not.
		name: "inner-recheck-dropped", class: "seqlock",
		edits: []edit{{"internal/core/inner.go",
			"\t\tif tr.version.Load() == ver {\n\t\t\tt.Advance(depth * 8 * t.CostDRAM())\n\t\t\treturn v\n\t\t}\n",
			"\t\tt.Advance(depth * 8 * t.CostDRAM())\n\t\treturn v\n"}},
		// coreUnit's pattern does not select the torn-descent test.
		unit: [][]string{{"-short", "-run", "^TestInnerTreeTornDescent$", "./internal/core"}},
	},
	{
		// A persist wave publishes its headers before the fence over
		// its data: a crash tears a published header over unwritten
		// slots.
		name: "leaf-data-nofence", class: "flush-unfenced",
		edits: []edit{{"internal/core/wave.go",
			"\tif flushed {\n\t\tw.t.Fence()\n\t}\n" +
				"\tfor i := range w.wave {\n\t\tif s := &w.wave[i]; !s.Done {\n" +
				"\t\t\tw.tree.index.Publish(w, s.n, s)\n\t\t\tpublished = true\n\t\t}\n\t}\n",
			"\tfor i := range w.wave {\n\t\tif s := &w.wave[i]; !s.Done {\n" +
				"\t\t\tw.tree.index.Publish(w, s.n, s)\n\t\t\tpublished = true\n\t\t}\n\t}\n" +
				"\tif flushed {\n\t\tw.t.Fence()\n\t}\n"}},
		unit: unitCore,
	},
	{
		// The same for a leaf's wave of one.
		name: "leaf-data-fence-later", class: "flush-unfenced",
		edits: []edit{{"internal/core/leafops.go",
			"\tif s.Flushed {\n\t\tw.t.Fence()\n\t}\n\tw.publishLeaf(n, &s)\n",
			"\tw.publishLeaf(n, &s)\n\tif s.Flushed {\n\t\tw.t.Fence()\n\t}\n"}},
		unit: unitCore,
	},
	{
		// A shared wave's Stage leaves the fingerprints of the slots it
		// fills to the header: a torn header can then land its bitmap
		// and stamp over stale fingerprints, so the stamp gates out the
		// records of writes whose slots no lookup finds.
		name: "wave-early-fps-dropped", class: "publish-order",
		edits: []edit{{"internal/core/leafops.go",
			"\tif s.Shared && fps.Hi > 0 && dirty.Lo < pmem.CachelineSize/pmem.WordSize {\n\t\tdirty.Mark(fps.Lo)\n" +
				"\t} else if s.Shared {\n\t\ts.Flushed = pmleaf.FlushSpan(w.t, img, fps)\n\t}\n",
			""}},
		unit: unitCore,
	},
	{
		name: "leaf-stamp-skipped", class: "stamp",
		edits: []edit{{"internal/core/leafops.go",
			"\ts.Img.SetTS(w.Stamp(n))\n", "\ts.Img.SetTS(s.Img.TS())\n"}},
		unit: unitCore,
	},
	{
		// Stamp hands out the raw tick of the worker's socket: a later
		// holder of a node's lock can draw a tick below an earlier
		// holder's, on a socket of smaller skew.
		name: "stamp-floor-dropped", class: "stamp",
		edits: []edit{{"internal/core/leafops.go",
			"\tn.floor = max(w.tree.clock.Now(w.socket), n.floor+1)\n\treturn n.floor\n",
			"\treturn w.tree.clock.Now(w.socket)\n"}},
		unit: unitCore,
	},
	{
		// An op that ends in a buffer slot is acknowledged with no
		// record: a crash before its leaf is flushed loses it.
		name: "buffered-run-unlogged", class: "unlogged-ack",
		edits: []edit{{"internal/core/batch.go",
			"if r.fits || (tr.opts.NaiveLogging && n.nbatch() > 0) {",
			"if tr.opts.NaiveLogging && n.nbatch() > 0 {"}},
		unit: unitCore,
	},
	{
		// The epoch is read before the group's nodes are locked: a GC
		// round can flip and copy a node's old slots between the read
		// and the lock, then reclaim the old generation the group's
		// records went to, while their slots still carry its bit.
		name: "epoch-read-before-lock", class: "epoch",
		edits: []edit{{"internal/core/batch.go",
			"\truns := w.lockRuns(kvs)\n\tsm, wal0, trig0 := w.segBegin(), w.segAcc[obs.SegWAL], w.segAcc[obs.SegTrigger]\n\te := tr.epoch.Load()\n",
			"\te := tr.epoch.Load()\n\truns := w.lockRuns(kvs)\n\tsm, wal0, trig0 := w.segBegin(), w.segAcc[obs.SegWAL], w.segAcc[obs.SegTrigger]\n"}},
		unit: unitCore,
	},
	{
		name: "replay-gate-inclusive", class: "replay",
		edits: []edit{{"internal/core/recovery.go",
			"if p.ts > leafTS {", "if p.ts >= leafTS {"}},
		unit: unitCore,
	},
	{
		// Every surviving record becomes a group of its own, outside
		// the node it routed to, so replay never puts it into that
		// node's slots or line.
		name: "replay-per-record", class: "replay",
		edits: []edit{{"internal/core/recovery.go",
			"routes[i] = join(routes[i], n, p)",
			"routes[i] = append(routes[i], group{recs: []record{p}})"}},
		unit: unitCore,
	},
	{
		// Open clears the chunk directory and free-lists every log
		// chunk, as it did when replay flushed every group into its
		// line, while the records replay put into buffer slots are
		// durable only in those chunks: a second crash loses them.
		name: "recovery-clears-log", class: "replay",
		edits: []edit{{"internal/core/recovery.go",
			"\ttr.walman.AdoptChunks(spare)\n\tworkers[0].logs[e].Adopt(kept)\n",
			"\ttr.dir.clearAll()\n\ttr.walman.AdoptChunks(append(spare, kept...))\n"}},
		unit: unitCore,
	},
	{
		// Each equal-key run of the sorted log keeps its oldest record
		// instead of its newest.
		name: "replay-dedup-keeps-oldest", class: "replay",
		edits: []edit{{"internal/core/recovery.go",
			"cmp.Compare(b.ts, a.ts)", "cmp.Compare(a.ts, b.ts)"}},
		unit: unitCore,
	},
	{
		// The hash table's chain flush stamps and publishes the home
		// bucket's header before its data is written: a crash in
		// between leaves a bitmap naming unwritten slots and a stamp
		// that gates the bucket's records out of replay.
		name: "hash-home-published-first", class: "publish-order",
		edits: []edit{{"internal/cclhash/cclhash.go",
			"\t// Phase 1: data, durable at the wave's fence before any header is\n",
			"\tchain[0].img.SetTS(w.Stamp(n))\n\tpmleaf.WriteHeader(t, &chain[0].img)\n" +
				"\t// Phase 1: data, durable at the wave's fence before any header is\n"}},
		unit: unitHash,
	},
	{
		name: "epoch-pin-skipped", class: "epoch",
		edits: []edit{{"internal/core/worker.go", "\tw.tree.epochEnter(w)\n", ""}},
		unit:  unitCore,
	},
	{
		// The superblock is persisted only in the mode where stores are
		// already durable: under ADR it may never reach media.
		name: "superblock-flushed-under-eadr", class: "eadr-only-flush",
		edits: []edit{{"internal/core/tree.go",
			"\tt.Persist(sb, sbWords*pmem.WordSize)\n\treturn tr, nil\n",
			"\tif pool.Config().Mode == pmem.EADR {\n\t\tt.Persist(sb, sbWords*pmem.WordSize)\n\t}\n\treturn tr, nil\n"}},
		unit: unitCore,
	},
	{
		// Every phase-1 thread scans its log share on the first one,
		// which discovers carved lines at the same time, instead of on
		// its own thread.
		name: "scan-thread-shared", class: "thread-shared",
		edits: []edit{{"internal/core/recovery.go",
			"wal.ReadEntryPart(t, chunksOn[sh.s], chunkBytes, sh.k, sh.n)",
			"wal.ReadEntryPart(phase[0], chunksOn[sh.s], chunkBytes, sh.k, sh.n)"}},
		unit: unitCore,
	},
	{
		// Worker registration takes the stop-the-world lock inside
		// workersMu; a naive GC round holds stw and takes workersMu to
		// reclaim logs, so the two deadlock.
		name: "register-under-workers-takes-stw", class: "lock-order",
		edits: []edit{{"internal/core/worker.go",
			"\tw.id = len(tr.workers)\n\ttr.workers = append(tr.workers, w)\n",
			"\tstok := tr.stw.rlock()\n\tw.id = len(tr.workers)\n\ttr.workers = append(tr.workers, w)\n\ttr.stw.runlock(stok)\n"}},
		unit: unitCore,
	},
	{
		// The same inversion two calls deep: registration waits out a
		// naive GC pause through stwEnter.
		name: "register-under-workers-waits-stw", class: "lock-order",
		edits: []edit{
			{"internal/core/worker.go",
				"\tw.id = len(tr.workers)\n\ttr.workers = append(tr.workers, w)\n",
				"\tw.waitPause()\n\tw.id = len(tr.workers)\n\ttr.workers = append(tr.workers, w)\n"},
			{"internal/core/worker.go",
				"func (w *Worker) stwExit(tok lockToken) {",
				"func (w *Worker) waitPause() {\n\tif w.tree.opts.GC == GCNaive {\n\t\tw.stwExit(w.stwEnter())\n\t}\n}\n\n" +
					"func (w *Worker) stwExit(tok lockToken) {"},
		},
		unit: unitCore,
	},
	{
		// The flush sweep fences each span itself, though appendGroup
		// fences them all once on return; the extra fences cost modeled
		// time.
		name: "wal-ignore-stale", class: "redundant-persist",
		edits: []edit{{"internal/wal/wal.go",
			"\t\t\tt.Flush(spanStart, spanLen)\n",
			"\t\t\tt.Flush(spanStart, spanLen)\n\t\t\tt.Fence()\n"}},
		unit: unitWAL,
	},
	{
		// A device word read plainly while writers store it atomically.
		name: "device-load-plain", class: "data-race",
		edits: []edit{{"internal/pmem/thread.go",
			"\treturn atomic.LoadUint64(&d.words[idx])\n}\n\n// Store",
			"\treturn d.words[idx]\n}\n\n// Store"}},
		unit: unitPmem,
	},
	{
		// The log's tail and chunk list are advanced with no lock while
		// GC detaches and recovery adopts chunks under it.
		name: "wal-append-unlocked", class: "data-race",
		edits: []edit{
			{"internal/wal/wal.go", "\tfor _, e := range entries {\n\t\tl.mu.Lock()\n", "\tfor _, e := range entries {\n"},
			{"internal/wal/wal.go", "\t\t\tif err != nil {\n\t\t\t\tl.mu.Unlock()\n", "\t\t\tif err != nil {\n"},
			{"internal/wal/wal.go", "\t\tl.bytes += EntrySize\n\t\tl.mu.Unlock()\n", "\t\tl.bytes += EntrySize\n"},
		},
		unit: unitWAL,
	},
	{
		// The split's right-sibling meta word is persisted twice.
		name: "split-meta-persisted-twice", class: "redundant-persist",
		edits: []edit{{"internal/core/leafops.go",
			"\tw.t.Persist(pmleaf.MetaAddr(n.leaf), pmem.WordSize)\n",
			"\tw.t.Persist(pmleaf.MetaAddr(n.leaf), pmem.WordSize)\n\tw.t.Persist(pmleaf.MetaAddr(n.leaf), pmem.WordSize)\n"}},
		unit: unitCore,
	},
	{
		// The split's new leaves are stored but persisted only after the
		// left leaf's meta word points at them and their buffer nodes
		// are linked into the chain readers and recovery follow.
		name: "split-leaves-persisted-late", class: "publish-order",
		edits: []edit{
			{"internal/core/leafops.go",
				"\t\tpmleaf.WriteWhole(w.t, &rimg)\n\t}\n",
				"\t\tw.t.WriteRange(rimg.Addr, rimg.Words[:])\n\t}\n"},
			{"internal/core/leafops.go",
				"\tn.next.Store(news[0].nb)\n",
				"\tn.next.Store(news[0].nb)\n\tfor k := range news {\n\t\tw.t.Persist(news[k].addr, pmleaf.Bytes)\n\t}\n"},
		},
		unit: unitCore,
	},
}

// persistPkgs are the packages whose persist points the generator
// mutates: the CCL write path and the leaf-line format under it.
var persistPkgs = []string{"internal/core", "internal/wal", "internal/cclhash", "internal/pmleaf"}

// generated derives the rows the generator owns from the source at
// root: for every direct Flush, Fence, Persist or pmleaf.PersistSpan
// call on a thread in persistPkgs,
//
//   - delete: the call goes (its arguments are still evaluated, so no
//     variable falls unused);
//   - flush: Persist becomes Flush, so nothing fences it;
//   - fence-later: a Fence moves one statement later, unless the next
//     statement leaves the block (then the move is the deletion);
//   - publish-first: the persist, or the loop around it, moves after
//     the first later statement of its block that stores to PM
//     (t.Store, pmleaf.WriteHeader): the publish lands first;
//
// and, for every PopScope on a thread, delete: the scope leaks.
func generated(t *testing.T, root string) []mutant {
	t.Helper()
	var out []mutant
	for _, dir := range persistPkgs {
		paths, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(dir), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			g := &gen{fset: fset, src: string(src), file: dir + "/" + filepath.Base(path), unit: unitFor(dir), pkg: filepath.Base(dir)}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					out = append(out, g.funcRows(fd)...)
				}
			}
		}
	}
	return out
}

// gen generates the rows of one source file.
type gen struct {
	fset      *token.FileSet
	src, file string
	pkg       string
	unit      [][]string
}

func (g *gen) off(p token.Pos) int { return g.fset.Position(p).Offset }

func (g *gen) text(n ast.Node) string { return g.src[g.off(n.Pos()):g.off(n.End())] }

// row wraps a mutated copy of the file as a mutant.
func (g *gen) row(name, class, mutated string) mutant {
	return mutant{name: name, class: class, edits: []edit{{g.file, g.src, mutated}}, unit: g.unit}
}

// funcRows generates the rows of one function declaration.
func (g *gen) funcRows(fd *ast.FuncDecl) []mutant {
	fn := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		fn = typeName(fd.Recv.List[0].Type) + "." + fn
	}
	var out []mutant
	ord := map[string]int{}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || len(stack) < 2 {
			return true
		}
		kind := persistKind(call)
		stmt, isStmt := stack[len(stack)-2].(ast.Stmt)
		if kind == "" || !isStmt {
			return true
		}
		ord[kind]++
		base := fmt.Sprintf("%s.%s.%s%d.", g.pkg, fn, strings.ToLower(kind), ord[kind])
		class := map[string]string{"Fence": "flush-unfenced", "PopScope": "scope"}[kind]
		if class == "" {
			class = "store-unflushed"
		}
		out = append(out, g.row(base+"delete", class, g.deleteStmt(stmt, call)))
		switch kind {
		case "Persist":
			sel := call.Fun.(*ast.SelectorExpr).Sel
			out = append(out, g.row(base+"flush", "flush-unfenced",
				g.src[:g.off(sel.Pos())]+"Flush"+g.src[g.off(sel.End()):]))
		case "Fence":
			if m, ok := g.fenceLater(stack, stmt); ok {
				out = append(out, g.row(base+"fence-later", "flush-unfenced", m))
			}
		}
		if kind == "Persist" || kind == "PersistSpan" {
			if m, ok := g.publishFirst(stack, stmt); ok {
				out = append(out, g.row(base+"publish-first", "publish-order", m))
			}
		}
		return true
	})
	return out
}

// persistKind names the generator's target a call is, or "".
func persistKind(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch name := sel.Sel.Name; name {
	case "Flush", "Fence", "Persist", "PopScope":
		if isThread(sel.X) {
			return name
		}
	case "PersistSpan":
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "pmleaf" {
			return name
		}
	}
	return ""
}

// isThread reports whether e is one of the names a *pmem.Thread goes
// by in persistPkgs: t, or a field t.
func isThread(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "t"
	case *ast.SelectorExpr:
		return x.Sel.Name == "t"
	}
	return false
}

func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// deleteStmt drops a call statement, and the comment on its line,
// keeping the arguments' evaluation as a blank assignment.
func (g *gen) deleteStmt(stmt ast.Stmt, call *ast.CallExpr) string {
	start, end := g.off(stmt.Pos()), g.off(stmt.End())
	if rest := g.src[end:]; strings.HasPrefix(strings.TrimLeft(rest, " \t"), "//") {
		end += strings.IndexByte(rest, '\n')
	}
	repl := ""
	if len(call.Args) > 0 {
		args := make([]string, len(call.Args))
		for i, a := range call.Args {
			args[i] = g.text(a)
		}
		repl = strings.TrimSuffix(strings.Repeat("_, ", len(args)), ", ") + " = " + strings.Join(args, ", ")
	}
	return g.src[:start] + repl + g.src[end:]
}

// siblings returns the statement list n sits in directly, and n's
// index there.
func siblings(parent, n ast.Node) ([]ast.Stmt, int) {
	var list []ast.Stmt
	switch p := parent.(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	}
	for i, s := range list {
		if s == n {
			return list, i
		}
	}
	return nil, -1
}

// fenceLater moves the Fence statement past its next sibling.
func (g *gen) fenceLater(stack []ast.Node, stmt ast.Stmt) (string, bool) {
	list, i := siblings(stack[len(stack)-3], stmt)
	if i < 0 || i+1 >= len(list) {
		return "", false
	}
	switch list[i+1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return "", false
	}
	return g.moveAfter(stmt, list[i+1]), true
}

// publishFirst moves the persist statement, or failing that the
// nearest loop around it, after the first later sibling that stores
// to PM.
func (g *gen) publishFirst(stack []ast.Node, stmt ast.Stmt) (string, bool) {
	cands := []int{len(stack) - 2}
	for i := len(stack) - 3; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			break
		}
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			cands = append(cands, i)
		}
		if len(cands) == 2 {
			break
		}
	}
	for _, c := range cands {
		if c == 0 {
			continue
		}
		list, i := siblings(stack[c-1], stack[c])
		for j := i + 1; i >= 0 && j < len(list); j++ {
			if storesPM(list[j]) {
				return g.moveAfter(stack[c], list[j]), true
			}
		}
	}
	return "", false
}

// storesPM reports whether s contains a PM store that publishes:
// Store on a thread, or pmleaf.WriteHeader.
func storesPM(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if (sel.Sel.Name == "Store" && isThread(sel.X)) || sel.Sel.Name == "WriteHeader" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// moveAfter returns the file with node a, which precedes b, moved to
// just after b.
func (g *gen) moveAfter(a, b ast.Node) string {
	a0, a1, b1 := g.off(a.Pos()), g.off(a.End()), g.off(b.End())
	return g.src[:a0] + g.src[a1:b1] + "\n" + g.src[a0:a1] + g.src[b1:]
}

// row is one mutant's outcome per gate.
type row struct {
	unit, torture, race, golden bool
}

var gateNames = []string{"unit", "torture", "race", "golden"}

// fields renders r as the table's gate columns.
func (r row) fields() []string {
	mark := func(k bool) string {
		if k {
			return "kill"
		}
		return "-"
	}
	return []string{mark(r.unit), mark(r.torture), mark(r.race), mark(r.golden)}
}

func (r row) killed() bool { return r != row{} }

// tableRow is one committed line of testdata/mutants.txt.
type tableRow struct {
	row
	// triage is, for a row no gate kills, its DESIGN.md verdict: b
	// (equivalent) or c (a redundant persist); "-" for a killed row. A
	// gate gap gets a test that kills the row instead.
	triage string
}

const tablePath = "testdata/mutants.txt"

// readTable loads the committed kill matrix.
func readTable(t *testing.T) map[string]tableRow {
	t.Helper()
	f, err := os.Open(tablePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]tableRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 6 {
			t.Fatalf("%s: %q: want 6 columns", tablePath, line)
		}
		out[fs[0]] = tableRow{row{fs[1] == "kill", fs[2] == "kill", fs[3] == "kill", fs[4] == "kill"}, fs[5]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// smokeMutant is the one row go test ./... scores on every gate.
const smokeMutant = "wal-append-nofence"

// fullMatrix reports whether this run asked for the matrix by name
// (go test -run TestMutants, as scripts/check.sh runs it). Any other
// run scores smokeMutant alone and checks that the rest still apply.
func fullMatrix() bool {
	f := flag.Lookup("test.run")
	return f != nil && strings.Contains(f.Value.String(), "TestMutants")
}

// TestMutants scores the crash-consistency gates against the named and
// generated mutants above. Each mutant is applied to a private copy of
// the module, and four gates run against the copy:
//
//   - unit: the mutated package's own -short tests, whose pools run
//     with StrictPersist on, so its runtime checks (checked sections,
//     lock order, concurrent thread use) kill as the tests run;
//   - torture: TestTortureShort, the crash-recovery and read oracles,
//     on one processor: at GOMAXPROCS 2 its verdict on some mutants
//     depends on the schedule (stamp-floor-dropped was killed in 8 runs
//     of 10, and survived one of two full matrix runs), which would
//     flip their cells;
//   - race: the unit column's tests under -race;
//   - golden: the figure and baseline goldens of internal/bench and
//     the layout and shape goldens.
//
// Each observed row must equal the committed one in testdata/
// mutants.txt, so a gate that goes blind, or a new test that kills a
// survivor, shows up as a diff. The unmutated tree is the control: the
// regular suite already holds it clean. One MUTANT line per cell is
// printed.
//
// Only a run that names the test (-run TestMutants) scores every row.
// Otherwise the rows are still generated and checked against the
// table, every hand-written row is checked to still apply, and
// smokeMutant alone is scored.
func TestMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("the kill matrix re-tests a copy of the module per mutant")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	table := readTable(t)
	all := append(append([]mutant(nil), named...), generated(t, root)...)
	checkCoverage(t, all, table)

	full := fullMatrix()
	rows := make([]row, len(all))
	scored := make([]bool, len(all))
	t.Run("matrix", func(t *testing.T) {
		for i, m := range all {
			t.Run(m.name, func(t *testing.T) {
				if !full && m.name != smokeMutant {
					m.apply(t, root, "")
					return
				}
				t.Parallel()
				dir := t.TempDir()
				copyModule(t, root, dir)
				m.apply(t, root, dir)
				rows[i], scored[i] = m.score(t, dir), true
			})
		}
	})
	if t.Failed() {
		return
	}
	var drift bool
	for i, m := range all {
		if !scored[i] {
			continue
		}
		got, want := rows[i], table[m.name]
		for j, c := range got.fields() {
			fmt.Printf("MUTANT %s %s=%s\n", m.name, gateNames[j], c)
		}
		if got != want.row {
			drift = true
			t.Errorf("%s: kill row %v, committed %v", m.name, got.fields(), want.fields())
		}
	}
	if drift && full {
		var b strings.Builder
		for i, m := range all {
			triage := table[m.name].triage
			if rows[i].killed() {
				triage = "-"
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\n", m.name, strings.Join(rows[i].fields(), "\t"), triage)
		}
		t.Logf("observed table:\n%s", b.String())
	}
}

// checkCoverage holds the generated and hand-written rows to the
// committed table: the same names, a triage for every row no gate
// kills and none for the others, every row of a known bug class, and
// a row of every class.
func checkCoverage(t *testing.T, all []mutant, table map[string]tableRow) {
	t.Helper()
	seen := map[string]bool{}
	classes := map[string]bool{}
	for _, m := range all {
		if seen[m.name] {
			t.Errorf("two rows named %s", m.name)
		}
		seen[m.name] = true
		if !slices.Contains(bugClasses, m.class) {
			t.Errorf("%s: bug class %q is not one of %v", m.name, m.class, bugClasses)
		}
		classes[m.class] = true
		want, ok := table[m.name]
		switch {
		case !ok:
			t.Errorf("%s: no row in %s", m.name, tablePath)
		case want.killed() && want.triage != "-":
			t.Errorf("%s: killed, but triaged %q", m.name, want.triage)
		case !want.killed() && want.triage != "b" && want.triage != "c":
			t.Errorf("%s: no gate kills it and the row is triaged neither b nor c", m.name)
		}
	}
	for name := range table {
		if !seen[name] {
			t.Errorf("%s: row in %s, but no such mutant", name, tablePath)
		}
	}
	for _, c := range bugClasses {
		if !classes[c] {
			t.Errorf("no row of bug class %s", c)
		}
	}
}

// tortureGate is the go test argument list of the torture column.
var tortureGate = []string{"-cpu=1", "-run", "^TestTortureShort$", "./internal/torture"}

// goldenGate is the go test argument list of the golden column.
var goldenGate = []string{
	"-run", "^(TestFigureGolden|TestBaselineModelGolden|TestLeafLayoutGolden|TestBucketLayoutGolden|TestInnerTreeShapeGolden)$",
	"./internal/bench", "./internal/core", "./internal/cclhash", "./internal/baselines/fptree",
}

// score runs the gates on the mutated copy at dir, side by side.
func (m mutant) score(t *testing.T, dir string) row {
	t.Helper()
	var r row
	race := make([][]string, len(m.unit))
	for i, args := range m.unit {
		race[i] = append([]string{"-race"}, args...)
	}
	cols := []struct {
		kill *bool
		runs [][]string
	}{{&r.unit, m.unit}, {&r.torture, [][]string{tortureGate}}, {&r.race, race}, {&r.golden, [][]string{goldenGate}}}
	var wg sync.WaitGroup
	errs := make([]error, len(cols))
	wg.Add(len(cols))
	for i, c := range cols {
		go func() {
			defer wg.Done()
			for _, args := range c.runs {
				failed, _, err := goTest(dir, args...)
				if err != nil {
					errs[i] = err
					return
				}
				*c.kill = *c.kill || failed
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTortureCatchesUnloggedAck checks the torture column's verdict on
// buffered-run-unlogged in detail: an op acknowledged from a buffer slot
// with no log record is lost at a crash, and the oracle must report the
// loss against the key it happened to. (A skipped fence, the class of
// wal-append-nofence, no longer reaches the oracle: the pools are strict,
// so the first write that returns with its record unfenced panics.)
func TestTortureCatchesUnloggedAck(t *testing.T) {
	out := tortureCatches(t, "buffered-run-unlogged")
	if !regexp.MustCompile(`round \d+ key 0x[1-9a-f][0-9a-f]*: `).Match(out) {
		t.Fatalf("violations carry no key-level detail:\n%s", out)
	}
}

// TestTortureCatchesSkippedReadRecheck checks the torture column's
// verdict on read-verdict-ignored in detail: optimistic readers that
// ignore their re-validation return pairs torn by concurrent writers,
// and only the read-attribution oracle may object, since recovery state
// is untouched.
func TestTortureCatchesSkippedReadRecheck(t *testing.T) {
	out := tortureCatches(t, "read-verdict-ignored")
	found := regexp.MustCompile(`round \d+ key 0x[0-9a-f]+: ([^\n]*)`).FindAllSubmatch(out, -1)
	if len(found) == 0 {
		t.Fatalf("the oracles reported no violation:\n%s", out)
	}
	for _, m := range found {
		if !bytes.Contains(m[1], []byte("observed")) {
			t.Fatalf("skipped recheck produced a non-read violation: %s", m[0])
		}
	}
}

// tortureCatches applies the named mutant to a copy of the module, runs
// the torture column against it, fails the test unless the oracles
// kill it, and returns the test output, violations included.
func tortureCatches(t *testing.T, name string) []byte {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range named {
		if m.name != name {
			continue
		}
		dir := t.TempDir()
		copyModule(t, root, dir)
		m.apply(t, root, dir)
		start := time.Now()
		failed, out, err := goTest(dir, tortureGate...)
		if err != nil {
			t.Fatal(err)
		}
		if !failed {
			t.Fatalf("the torture oracles missed mutant %s:\n%s", name, out)
		}
		t.Logf("mutant %s caught in %v", name, time.Since(start))
		return out
	}
	t.Fatalf("no mutant %s", name)
	return nil
}

// apply performs m's edits on the sources at root and writes the
// results into the copy at dir; with dir empty it only checks that
// every edit still applies.
func (m mutant) apply(t *testing.T, root, dir string) {
	t.Helper()
	files := map[string]string{}
	for _, e := range m.edits {
		src, ok := files[e.file]
		if !ok {
			b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(e.file)))
			if err != nil {
				t.Fatal(err)
			}
			src = string(b)
		}
		if n := strings.Count(src, e.old); n != 1 {
			t.Fatalf("mutant %s: %q occurs %d times in %s, want exactly once", m.name, e.old, n, e.file)
		}
		files[e.file] = strings.Replace(src, e.old, e.new, 1)
	}
	if dir == "" {
		return
	}
	for file, src := range files {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(file)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyModule copies the module at root into dst, leaving out hidden
// directories and the benchmark's output directory.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == filepath.Join("benchmark", "out")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}

// goTest runs go test with args in dir and reports whether the tests
// failed, with the output. A copy that does not build is a broken
// mutant, not a kill: that is an error. -trimpath keeps the build
// cache's keys free of the copy's directory, so a copy rebuilds only
// the mutated packages and their dependents.
func goTest(dir string, args ...string) (bool, []byte, error) {
	out, err := goCmd(dir, append([]string{"test", "-trimpath", "-count=1", "-vet=off", "-timeout=3m"}, args...)...)
	if err == nil {
		return false, out, nil
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
		return false, out, fmt.Errorf("go test %v: %v\n%s", args, err, out)
	}
	return true, out, nil
}

// goCmd runs the go tool in dir, returning its combined output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}
