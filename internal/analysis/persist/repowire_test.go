package persist

import (
	"strings"
	"testing"
)

// TestRepoBatchPathWiring runs the analyzer over the real WAL and core
// packages and pins the interprocedural wiring the write path depends
// on: the call graph must register wal's Append/AppendBatch and core's
// write-protocol helpers, resolve groupCommit's AppendBatch call edge
// (the one foreground WAL-append site) across the package boundary,
// enter both in the summary table (both take a *pmem.Thread), and reach
// groupCommit from every public write entry point — single writes
// included, which run the same protocol as a group of one — so PL-rule
// discharge of the foreground append is checked on the path users
// actually run. The discharge itself is exercised by the corpus; this
// test guards the real-repo names against silent resolution regressions
// — an unresolved edge would quietly demote PL001/PL002 checking
// of every writer to the bare-name merge, and the write path must stay
// free of those findings.
func TestRepoBatchPathWiring(t *testing.T) {
	an, findings := analyzeRepoCore(t)

	byKey := an.cg.byKey
	for _, key := range []string{
		"../../wal::Log.Append",
		"../../wal::Log.AppendBatch",
		"../../core::Worker.Upsert",
		"../../core::Worker.Delete",
		"../../core::Worker.ApplyBatch",
		"../../core::Worker.lockRuns",
		"../../core::Worker.placeRun",
		"../../core::Worker.applyRun",
		"../../core::Worker.groupCommit",
	} {
		if byKey[key] == nil {
			t.Fatalf("call graph has no node %q; the batch path is not wired", key)
		}
		if _, ok := an.summaries[key]; !ok && strings.Contains(key, "wal::") {
			t.Errorf("no summary computed for %q; callers lose discharge credit", key)
		}
	}

	commit := byKey["../../core::Worker.groupCommit"]
	batch := byKey["../../wal::Log.AppendBatch"]
	wired := false
	for _, c := range commit.callees {
		if an.cg.nodes[c] == batch {
			wired = true
		}
	}
	if !wired {
		t.Errorf("groupCommit -> AppendBatch edge missing; cross-package discharge and cache invalidation both break")
	}

	for _, entry := range []string{"Upsert", "Delete", "UpsertVar", "DeleteVar", "UpsertIndirect", "UpsertLargeValue", "ApplyBatch"} {
		from := byKey["../../core::Worker."+entry]
		if from == nil {
			t.Fatalf("call graph has no node for Worker.%s", entry)
		}
		if !reachesSync(an, from, commit) {
			t.Errorf("Worker.%s does not reach groupCommit; the single write path is not the checked one", entry)
		}
	}
	// The walk must be able to say no: a read never logs.
	if reachesSync(an, byKey["../../core::Worker.Lookup"], commit) {
		t.Errorf("Worker.Lookup reaches groupCommit; the reachability walk proves nothing")
	}

	for _, f := range findings {
		if strings.HasSuffix(f.Pos.Filename, "wal/wal.go") || strings.HasSuffix(f.Pos.Filename, "core/batch.go") {
			switch f.Code {
			case CodeStoreNoPersist, CodeFlushNoFence:
				t.Errorf("batch path regressed: %s", f)
			}
		}
	}
}

// analyzeRepoCore runs the analyzer over the real core package and the
// packages under it.
func analyzeRepoCore(t *testing.T) (*Analyzer, []Finding) {
	t.Helper()
	an := NewAnalyzer()
	for _, dir := range []string{"../../pmem", "../../obs", "../../wal", "../../core"} {
		if err := an.AddDir(dir, false); err != nil {
			t.Fatal(err)
		}
	}
	return an, an.Run()
}

// reachesSync reports whether the call graph has a path from one node
// to another on the caller's own stack (no go statement crossed: the GC
// goroutine a write may start does not count).
func reachesSync(an *Analyzer, from, to *funcNode) bool {
	seen := map[*funcNode]bool{}
	var walk func(n *funcNode) bool
	walk = func(n *funcNode) bool {
		if n == to {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, c := range n.syncCallees {
			if walk(an.cg.nodes[c]) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// TestRepoReadPathWiring is the static half of the read-scaling gate
// (bench.TestReadScaling is the dynamic half): no read entry point of
// core.Worker reaches a buffer node's version lock — tryLock, or
// lockOwner, the one loop that takes it — over synchronous call edges,
// while every one of them reaches the shared read shim and its
// seqlock recheck. The write side is the control: Upsert does reach
// the lock, so the walk can say yes.
func TestRepoReadPathWiring(t *testing.T) {
	an, _ := analyzeRepoCore(t)
	node := func(key string) *funcNode {
		n := an.cg.byKey["../../core::"+key]
		if n == nil {
			t.Fatalf("call graph has no node %q; the read path is not wired", key)
		}
		return n
	}
	locks := []string{"bufferNode.tryLock", "Worker.lockOwner"}
	for _, entry := range []string{"Lookup", "LookupVar", "LookupLargeValue", "Scan", "ScanVar"} {
		from := node("Worker." + entry)
		for _, lock := range locks {
			if reachesSync(an, from, node(lock)) {
				t.Errorf("Worker.%s reaches %s: a read takes the node lock", entry, lock)
			}
		}
		for _, step := range []string{"Worker.read", "Worker.readRecheck", "Worker.retry"} {
			if !reachesSync(an, from, node(step)) {
				t.Errorf("Worker.%s does not reach %s; it is not on the one read protocol", entry, step)
			}
		}
	}
	for _, lock := range locks {
		if !reachesSync(an, node("Worker.Upsert"), node(lock)) {
			t.Errorf("Worker.Upsert does not reach %s; the reachability walk proves nothing", lock)
		}
	}
}
