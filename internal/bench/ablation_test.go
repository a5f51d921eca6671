package bench

import (
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/workload"
)

// TestFig13bPartition: Fig 13(b)'s split is a partition. For every
// ablation variant its leaf, WAL and metadata bytes sum to the run's
// media writes, and "leaf" — computed as the remainder — is exactly
// what the leaf-maintaining scopes wrote.
func TestFig13bPartition(t *testing.T) {
	for _, f := range cclVariants() {
		r, err := runOne(f, Spec{
			Threads: 4, Warm: 3000, Ops: 3000,
			Mix: workload.Mix{Insert: 1}, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Res.Stats
		leaf, wal, meta := xbiSplit(st)
		if leaf+wal+meta != st.MediaWriteBytes || st.MediaWriteBytes == 0 {
			t.Errorf("%s: leaf %d + WAL %d + meta %d != media %d", r.Name, leaf, wal, meta, st.MediaWriteBytes)
		}
		var byScope uint64
		for _, sc := range []pmem.Scope{pmem.ScopeNone, pmem.ScopeLeafBuf, pmem.ScopeGC, pmem.ScopeSplit, pmem.ScopeRecovery} {
			byScope += st.MediaWriteByScope[sc]
		}
		if leaf != byScope {
			t.Errorf("%s: leaf %d != leaf-maintaining scopes %d (%v)", r.Name, leaf, byScope, st.ScopeMediaBytes())
		}
		if logs := r.Name != "Base"; logs != (wal > 0) {
			t.Errorf("%s: WAL bytes %d", r.Name, wal)
		}
	}
}
