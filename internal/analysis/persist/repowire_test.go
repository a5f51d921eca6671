package persist

import (
	"strings"
	"testing"
)

// TestRepoBatchPathWiring runs the analyzer over the real WAL and core
// packages and pins the interprocedural wiring the batch write path
// depends on: the call graph must register wal's Append/AppendBatch
// and core's batch helpers, resolve groupCommit's AppendBatch call edge
// (the one site both ApplyBatch and relogRun log through) across the
// package boundary, and enter both in the summary table
// (both take a *pmem.Thread). The discharge itself is exercised by the
// corpus; this test guards the real-repo names against silent
// resolution regressions — an unresolved edge would quietly demote
// PL001/PL002/PL013 checking of every batch caller to the bare-name
// merge, and the batch path must stay free of those findings.
func TestRepoBatchPathWiring(t *testing.T) {
	an := NewAnalyzer()
	for _, dir := range []string{"../../pmem", "../../obs", "../../wal", "../../core"} {
		if err := an.AddDir(dir, false); err != nil {
			t.Fatal(err)
		}
	}
	findings := an.Run()

	byKey := an.cg.byKey
	for _, key := range []string{
		"../../wal::Log.Append",
		"../../wal::Log.AppendBatch",
		"../../core::Worker.ApplyBatch",
		"../../core::Worker.applyRunLocked",
		"../../core::Worker.relogRun",
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

	for _, f := range findings {
		if strings.HasSuffix(f.Pos.Filename, "wal/wal.go") || strings.HasSuffix(f.Pos.Filename, "core/batch.go") {
			switch f.Code {
			case CodeStoreNoPersist, CodeFlushNoFence, CodeEscapeBeforePersist:
				t.Errorf("batch path regressed: %s", f)
			}
		}
	}
}
