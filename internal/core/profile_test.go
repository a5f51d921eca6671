package core

import (
	"testing"

	"cclbtree/internal/obs"
)

// segSums folds a Profile's segment stats into per-op SumNS totals and a
// per-(op,segment) count map for assertions.
func segSums(p obs.Profile) (sums map[string]uint64, cells map[string]uint64) {
	sums = map[string]uint64{}
	cells = map[string]uint64{}
	for _, s := range p.Segments {
		sums[s.Op] += s.SumNS
		cells[s.Op+"/"+s.Segment] = s.Count
	}
	return sums, cells
}

// histSum reads one histogram's Sum out of a metrics snapshot (0 when
// the histogram recorded nothing).
func histSum(s *obs.Snapshot, name string) uint64 {
	if h, ok := s.Hists[name]; ok {
		return h.Sum
	}
	return 0
}

func TestProfileSegmentsPartitionOpLatency(t *testing.T) {
	tr, w := newTestTree(t, Options{Metrics: true}, nil)
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		if err := w.Upsert(i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := w.Lookup(i); !ok || v != i*7 {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	// Scans are reads: their spans land in the get class, their latency
	// in scan_ns.
	out := make([]KV, 100)
	for i := uint64(1); i <= n; i += 100 {
		if got := w.Scan(i, len(out), out); got != len(out) {
			t.Fatalf("Scan(%d) = %d entries", i, got)
		}
	}
	var batch []BatchOp
	for i := uint64(n + 1); i <= n+256; i++ {
		batch = append(batch, BatchOp{Key: i, Value: i})
	}
	if err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}

	p := tr.Profile()
	sums, cells := segSums(p)

	// The core of the contract: per op class, recorded segments sum to
	// the recorded op latency — the attribution partitions, it does not
	// sample or approximate.
	lat := tr.Metrics().Latency
	if sums["batch"] == 0 {
		t.Fatal("batch ops recorded no segment time")
	}
	// ApplyBatch latency lands in insert_ns (a group commit is a bulk
	// insert), so the write-side identity spans both op classes.
	if got, want := sums["put"]+sums["batch"], histSum(lat, "insert_ns"); got != want {
		t.Fatalf("put+batch segments sum to %d ns, insert_ns recorded %d", got, want)
	}
	if got, want := sums["get"], histSum(lat, "lookup_ns")+histSum(lat, "scan_ns"); got != want {
		t.Fatalf("get segments sum to %d ns, lookup_ns+scan_ns recorded %d", got, want)
	}

	// A single-threaded insert+lookup run must populate the obvious
	// cells: traversal and the locked buffer section on both paths, WAL
	// and fence work on the write path.
	// (No put/buffer expectation: under the cost model a plain upsert's
	// locked section is exactly its WAL/trigger/flush/fence work — slot
	// stores are free DRAM — so the buffer residual is zero there.)
	for _, cell := range []string{
		"put/traverse", "put/wal", "put/fence",
		"get/traverse",
		"batch/wal", "batch/buffer",
	} {
		if cells[cell] == 0 {
			t.Errorf("segment cell %s never observed (cells: %v)", cell, cells)
		}
	}

	// Lock classes touched on these paths appear with plausible counts;
	// untouched classes are omitted from the snapshot entirely.
	locks := map[string]obs.LockStat{}
	for _, ls := range p.Locks {
		locks[ls.Class] = ls
	}
	// inner.mu is a writer-only lock (reads validate their descent
	// against the tree-wide seqlock word instead), so acquisitions come
	// only from structural updates — splits registering new routing
	// entries.
	if got := locks["inner.mu"].Acquisitions; got == 0 {
		t.Fatal("inner.mu never acquired despite splits registering routes")
	}
	if got := locks["inner.mu"].Acquisitions; got > n {
		t.Fatalf("inner.mu acquisitions = %d for %d ops — reads are taking the writer lock", got, n)
	}
	if locks["chunkdir.mu"].Acquisitions == 0 {
		t.Fatal("chunkdir.mu never acquired despite WAL chunk registration")
	}

	// The heatmap saw the working set: hot leaves exist, scores carry
	// both reads and writes, addresses are real leaf addresses.
	if len(p.HotLeaves) == 0 {
		t.Fatal("no hot leaves after 2000 writes + 2000 reads")
	}
	top := p.HotLeaves[0]
	if top.Score == 0 || top.Leaf == 0 {
		t.Fatalf("degenerate hot leaf %+v", top)
	}
	var reads, writes uint64
	for _, e := range p.HotLeaves {
		reads += e.Reads
		writes += e.Writes
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("hot-leaf summary missing a direction: reads=%d writes=%d", reads, writes)
	}
}

func TestProfileZeroValuedWhenMetricsOff(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 100; i++ {
		_ = w.Upsert(i, i)
		_, _ = w.Lookup(i)
	}
	p := tr.Profile()
	if len(p.Locks) != 0 || len(p.Segments) != 0 || len(p.HotLeaves) != 0 {
		t.Fatalf("metrics-off Profile not empty: %+v", p)
	}
	if p.HeatEpoch != 0 || p.HeatDropped != 0 {
		t.Fatalf("metrics-off heat counters nonzero: %+v", p)
	}
}

func TestProfileGCLockClasses(t *testing.T) {
	tr, w := newTestTree(t, Options{Metrics: true, GC: GCNaive}, nil)
	for i := uint64(1); i <= 500; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	tr.ForceGC()
	locks := map[string]obs.LockStat{}
	for _, ls := range tr.Profile().Locks {
		locks[ls.Class] = ls
	}
	if locks["gcMu"].Acquisitions == 0 {
		t.Fatal("gcMu never profiled across a forced GC round")
	}
	if locks["stw"].Acquisitions == 0 {
		t.Fatal("stw never profiled across a naive GC round")
	}
	if locks["workersMu"].Acquisitions == 0 {
		t.Fatal("workersMu never profiled (NewWorker + reclaimLogs)")
	}
}

// TestProfiledLookupZeroAlloc pins the metrics-ON read fast path at zero
// allocations: span attribution, heat touches and lock brackets must all
// stay on the stack.
func TestProfiledLookupZeroAlloc(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newTestTree(t, Options{Metrics: true}, nil)
	for i := uint64(1); i <= 512; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var k uint64 = 1
	avg := testing.AllocsPerRun(2000, func() {
		w.Lookup(k)
		k = k%512 + 1
	})
	if avg != 0 {
		t.Fatalf("metrics-on Lookup allocates %.2f objects/op, want 0", avg)
	}
}
