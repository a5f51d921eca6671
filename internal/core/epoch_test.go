package core

import (
	"runtime"
	"sync"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// TestEpochRetireImmediateWhenUnpinned: with no reader inside a
// critical section, retiring a leaf frees it on the spot — the
// single-threaded behavior is indistinguishable from a direct Free, so
// memory accounting never changes for sequential workloads.
func TestEpochRetireImmediateWhenUnpinned(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	a, err := tr.newLeaf(w.t, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.retireLeaf(a)
	if n := tr.epochLimboLen(); n != 0 {
		t.Fatalf("limbo holds %d entries with no pinned readers, want 0", n)
	}
	c := tr.Counters()
	if c.EpochRetires != 1 || c.EpochReclaims != 1 {
		t.Fatalf("retires=%d reclaims=%d, want 1/1", c.EpochRetires, c.EpochReclaims)
	}
}

// TestEpochReaderParkedAcrossGCFlip: a reader pinned before a retire
// holds that leaf in limbo through any number of epoch advances —
// including a full GC round — and the leaf frees only after the reader
// exits. This is the core EBR safety property: reclamation can be
// delayed, never unsafe.
func TestEpochReaderParkedAcrossGCFlip(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 200; i++ {
		_ = w.Upsert(i, i)
	}
	reader := tr.NewWorker(0)
	tr.epochEnter(reader) // reader parks inside a read-side section
	limbo0 := tr.epochLimboLen()
	reclaims0 := tr.Counters().EpochReclaims

	a, err := tr.newLeaf(w.t, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.retireLeaf(a)
	if n := tr.epochLimboLen(); n != limbo0+1 {
		t.Fatalf("limbo %d after retire under pinned reader, want %d", n, limbo0+1)
	}

	// A GC round flips the reclamation epoch; the parked reader must
	// still hold the entry.
	tr.ForceGC()
	tr.advanceEpoch()
	if n := tr.epochLimboLen(); n != limbo0+1 {
		t.Fatalf("limbo %d after GC flip with reader still pinned, want %d", n, limbo0+1)
	}
	if got := tr.Counters().EpochReclaims; got != reclaims0 {
		t.Fatalf("reclaimed %d leaves under a pinned reader", got-reclaims0)
	}

	tr.epochExit(reader)
	tr.advanceEpoch()
	if n := tr.epochLimboLen(); n != 0 {
		t.Fatalf("limbo %d after reader exit + advance, want 0", n)
	}
	if got := tr.Counters().EpochReclaims; got != reclaims0+uint64(limbo0)+1 {
		t.Fatalf("EpochReclaims advanced %d, want %d", got-reclaims0, limbo0+1)
	}
}

// TestEpochReadPinsWhileRetrying: a lookup spinning on a locked node is
// inside its read-side section, so it holds the reclamation epoch: a
// leaf retired meanwhile waits in limbo until the read returns.
func TestEpochReadPinsWhileRetrying(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	if err := w.Upsert(1, 10); err != nil {
		t.Fatal(err)
	}
	n := tr.index.Find(w.t, 1)
	ver, ok := n.tryLock()
	if !ok {
		t.Fatal("node locked")
	}
	reader := tr.NewWorker(0)
	retries := tr.Counters().ReadRetries
	got := make(chan uint64)
	go func() {
		v, _ := reader.Lookup(1)
		got <- v
	}()
	for tr.Counters().ReadRetries == retries {
		runtime.Gosched() // wait until the reader is inside, retrying
	}
	a, err := tr.newLeaf(w.t, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.retireLeaf(a)
	limbo := tr.epochLimboLen()
	n.unlock(ver)
	if v := <-got; v != 10 {
		t.Fatalf("Lookup(1) = %d after the node unlocked, want 10", v)
	}
	if limbo != 1 {
		t.Fatalf("limbo %d after a retire under a pinned reader, want 1", limbo)
	}
	tr.advanceEpoch()
	if l := tr.epochLimboLen(); l != 0 {
		t.Fatalf("limbo %d after the reader returned, want 0", l)
	}
}

// TestEpochMergeRetiresThroughLimbo: real merges route their dead
// leaves through the epoch manager (not a direct Free), and with no
// concurrent readers everything drains — no leak, retires == reclaims.
func TestEpochMergeRetiresThroughLimbo(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	for i := uint64(1); i <= n; i++ {
		if i%10 != 0 {
			_ = w.Delete(i)
		}
	}
	c := tr.Counters()
	if c.Merges == 0 {
		t.Fatal("no merges after mass deletion")
	}
	if c.EpochRetires != c.Merges {
		t.Fatalf("EpochRetires = %d, Merges = %d — merge bypassed the epoch manager", c.EpochRetires, c.Merges)
	}
	if c.EpochReclaims != c.EpochRetires {
		t.Fatalf("EpochReclaims = %d of %d retires with no readers", c.EpochReclaims, c.EpochRetires)
	}
	if l := tr.epochLimboLen(); l != 0 {
		t.Fatalf("%d leaves stuck in limbo", l)
	}
}

// TestEpochChainRepublishedMidScan: a scan positioned on a node that a
// concurrent merge then kills must observe the dead flag, re-route
// from its progress point, and still return every surviving key — and
// the dead node's leaf stays readable (in limbo) while the scan is
// pinned.
func TestEpochChainRepublishedMidScan(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	const n = 600
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	// Find the second node's range start so deletions target one node.
	first := tr.head
	second := first.next.Load()
	if second == nil {
		t.Fatal("tree did not split")
	}
	lo := second.lowKey
	hi := n + 1
	if nx := second.next.Load(); nx != nil {
		hi = int(nx.lowKey)
	}

	// Pin a reader as if mid-scan on `second`, then merge it away.
	reader := tr.NewWorker(0)
	tr.epochEnter(reader)
	for i := lo; i < uint64(hi); i++ {
		_ = w.Upsert(i, i) // refresh so deletes go through cleanly
	}
	for i := lo; i < uint64(hi); i++ {
		_ = w.Delete(i)
	}
	if !second.dead() {
		tr.epochExit(reader)
		t.Skip("merge heuristic left the node alive (occupancy boundary)")
	}
	if tr.epochLimboLen() == 0 {
		t.Fatal("dead node's leaf not in limbo under a pinned reader")
	}
	// The parked reader can still read the retired leaf's PM words —
	// the address must not have been recycled.
	var img pmleaf.Image
	img.Read(reader.t, second.leaf)

	// scanNode on the dead node reports scanDead so Scan re-routes.
	if _, _, st := reader.scanNode(second); st != scanDead {
		t.Fatalf("scanNode on dead node = %d, want scanDead", st)
	}
	tr.epochExit(reader)

	// A fresh scan over the whole space sees exactly the survivors.
	out := make([]KV, n)
	got := w.Scan(1, n, out)
	want := 0
	for i := 1; i <= n; i++ {
		if i < int(lo) || i >= hi {
			want++
		}
	}
	if got != want {
		t.Fatalf("scan found %d keys, want %d", got, want)
	}
	tr.advanceEpoch()
	if l := tr.epochLimboLen(); l != 0 {
		t.Fatalf("%d leaves stuck in limbo after reader exit", l)
	}
}

// TestOptimisticReadNeverFlushes: the lock-free read path is PM-read-
// only — no flush, no fence. (A reader that wrote PM would break the
// crash model: reads must be issuable right up to the failure instant
// with no durability obligations.)
func TestOptimisticReadNeverFlushes(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 500; i++ {
		_ = w.Upsert(i, i)
	}
	r := w.tree.NewWorker(0)
	fl, fe := r.t.FlushNS(), r.t.FenceNS()
	for i := uint64(1); i <= 500; i++ {
		r.Lookup(i)
	}
	out := make([]KV, 600)
	r.Scan(1, 600, out)
	if r.t.FlushNS() != fl || r.t.FenceNS() != fe {
		t.Fatal("read path issued flush/fence work")
	}
}

// TestCrashDuringOptimisticRead: a writer killed by a power failure
// while holding a node's version lock leaves the seqlock odd forever.
// Readers spinning on it must surface the same PowerFailure instead of
// hanging (Tree.crashAbort), in both ADR and eADR, and recovery after
// the crash must be clean — the dead reader left no obligations.
func TestCrashDuringOptimisticRead(t *testing.T) {
	for name, mode := range map[string]pmem.Mode{"ADR": pmem.ADR, "eADR": pmem.EADR} {
		mode := mode
		t.Run(name, func(t *testing.T) {
			tr, w := newTestTree(t, Options{GC: GCOff}, func(c *pmem.Config) { c.Mode = mode })
			const n = 400
			for i := uint64(1); i <= n; i++ {
				if err := w.Upsert(i, i); err != nil {
					t.Fatal(err)
				}
			}
			pool := tr.Pool()

			// Kill the writer at its next WAL flush — inside
			// applyRunLocked, version lock held.
			pool.FailWhen(func(fp pmem.FaultPoint) bool { return true })
			if !pmem.Survive(func() { _ = w.Upsert(7, 7777) }) {
				t.Error("upsert survived an armed always-fire fault")
			}

			// Both read shapes must abort, not spin.
			reader := tr.NewWorker(0)
			for name, read := range map[string]func(){
				"lookup": func() { reader.Lookup(7) },
				"scan":   func() { out := make([]KV, 8); reader.Scan(1, 8, out) },
			} {
				if !pmem.Survive(read) {
					t.Errorf("%s on a dead writer's node returned instead of aborting", name)
				}
			}

			// Recovery proceeds as after any crash; the reader added no
			// durability obligations.
			tr.Freeze()
			pool.FailWhen(nil)
			pool.Crash()
			tr2, _, err := Open(pool, Options{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			w2 := tr2.NewWorker(0)
			for i := uint64(1); i <= n; i++ {
				v, ok := w2.Lookup(i)
				// The op in flight at the crash (key 7 → 7777) may
				// legally recover either way: eADR keeps its WAL record
				// durable at store time, ADR loses the unflushed append.
				if i == 7 {
					if !ok || (v != 7 && v != 7777) {
						t.Fatalf("in-flight key 7 recovered as %d,%v", v, ok)
					}
					continue
				}
				if !ok || v != i {
					t.Fatalf("key %d after crash-during-read: %d,%v", i, v, ok)
				}
			}
		})
	}
}

// TestConcurrentReadersUnderReclamation hammers the exact race EBR
// exists for: scanners walking the chain while writers merge nodes
// away and reinsert, forcing continuous retire/reclaim cycles.
func TestConcurrentReadersUnderReclamation(t *testing.T) {
	tr, w0 := newTestTree(t, Options{GC: GCOff}, nil)
	const space = 1500
	for i := uint64(1); i <= space; i++ {
		_ = w0.Upsert(i, i)
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Churn one third of the space: delete (forcing
				// merges/retires), then reinsert (forcing splits).
				lo := uint64(g*space/3 + 1)
				for k := lo; k < lo+space/3; k++ {
					_ = w.Delete(k)
				}
				for k := lo; k < lo+space/3; k++ {
					_ = w.Upsert(k, k)
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			out := make([]KV, 64)
			for i := 0; i < 3000; i++ {
				k := uint64(i%space + 1)
				if v, ok := w.Lookup(k); ok && v != k {
					t.Errorf("key %d read foreign value %d", k, v)
					return
				}
				if i%8 == 0 {
					n := w.Scan(k, 64, out)
					for j := 1; j < n; j++ {
						if out[j].Key <= out[j-1].Key {
							t.Errorf("scan disorder under reclamation churn")
							return
						}
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if tr.Counters().EpochRetires == 0 {
		t.Fatal("churn produced no retires — test exercised nothing")
	}
	tr.Freeze() // drains limbo
	if l := tr.epochLimboLen(); l != 0 {
		t.Fatalf("%d leaves stuck in limbo after freeze", l)
	}
}
