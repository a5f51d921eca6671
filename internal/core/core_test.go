package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
)

func newTestPool(mut func(*pmem.Config)) *pmem.Pool {
	cfg := pmem.Config{
		Sockets:        2,
		DIMMsPerSocket: 2,
		DeviceBytes:    32 << 20,
		XPBufferLines:  16,
		CacheLines:     1 << 13,
		StrictPersist:  true,
	}
	if mut != nil {
		mut(&cfg)
	}
	return pmem.NewPool(cfg)
}

func newTestTree(t *testing.T, opts Options, mut func(*pmem.Config)) (*Tree, *Worker) {
	t.Helper()
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = 16 << 10
	}
	pool := newTestPool(mut)
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.NewWorker(0)
}

func TestUpsertLookupRoundtrip(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 1000; i++ {
		if err := w.Upsert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 1000; i++ {
		v, ok := w.Lookup(i)
		if !ok || v != i*3 {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := w.Lookup(5000); ok {
		t.Fatal("found absent key")
	}
}

func TestKeyZeroRejected(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	// Keys above MaxValue carry the indirection/probe tag bits; recovery
	// drops their records, so every entry point must refuse them.
	const tagged = 3<<62 | 5
	blob, err := w.blobs.write(w.t, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"Upsert key 0", w.Upsert(0, 1)},
		{"Upsert tombstone value", w.Upsert(1, Tombstone)},
		{"Upsert value above MaxValue", w.Upsert(1, MaxValue+1)},
		{"Upsert key above MaxValue", w.Upsert(tagged, 1)},
		{"Delete key 0", w.Delete(0)},
		{"Delete key above MaxValue", w.Delete(tagged)},
		{"UpsertIndirect key above MaxValue", w.UpsertIndirect(tagged, blob)},
		{"large value key 0", putLarge(w, 0, []byte("v"))},
		{"large value key above MaxValue", putLarge(w, tagged, []byte("v"))},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// One validator: a malformed op fails with the same error alone
	// and in a group, behind a valid op the group then leaves unapplied.
	for _, c := range []struct {
		op   BatchOp
		want error // the sentinel, where the rejection has one
	}{
		{BatchOp{Key: 0, Value: 1}, ErrZeroKey},
		{BatchOp{Delete: true}, ErrZeroKey},
		{BatchOp{ValueBytes: []byte("v")}, ErrZeroKey},
		{BatchOp{KeyBytes: []byte("k"), ValueBytes: []byte("v")}, ErrVarKVRequired},
		{BatchOp{Key: tagged, Value: 1}, nil},
		{BatchOp{Key: tagged, ValueBytes: []byte("v")}, nil},
		{BatchOp{Key: 1, Value: Tombstone}, nil},
		{BatchOp{Key: 1, Value: MaxValue + 1}, nil},
		{BatchOp{Key: 1, Value: blob}, nil}, // a tagged pointer outside UpsertIndirect
		{BatchOp{Key: 1, Value: 2, ValueBytes: []byte("v")}, nil},
	} {
		alone := w.Write(&c.op, false)
		group := w.ApplyBatch([]BatchOp{{Key: 2, Value: 2}, c.op})
		if alone == nil || group == nil || alone.Error() != group.Error() {
			t.Errorf("%+v: alone %v, in a group %v", c.op, alone, group)
		} else if c.want != nil && (!errors.Is(alone, c.want) || !errors.Is(group, c.want)) {
			t.Errorf("%+v: alone %v, in a group %v, want %v", c.op, alone, group, c.want)
		}
	}
	if c := tr.Counters(); c.LoggedWrites != 0 || c.Upserts != 0 || c.Deletes != 0 {
		t.Fatalf("rejected writes had side effects: %+v", c)
	}
}

func TestUpdateOverwrites(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 200; i++ {
		_ = w.Upsert(i, i)
	}
	for i := uint64(1); i <= 200; i++ {
		_ = w.Upsert(i, i+1000)
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok := w.Lookup(i)
		if !ok || v != i+1000 {
			t.Fatalf("Lookup(%d) = %d,%v after update", i, v, ok)
		}
	}
}

func TestDelete(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 500; i++ {
		_ = w.Upsert(i, i)
	}
	for i := uint64(1); i <= 500; i += 2 {
		if err := w.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 500; i++ {
		_, ok := w.Lookup(i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("Lookup(%d) = %v, want %v", i, ok, want)
		}
	}
	// Re-insert deleted keys.
	for i := uint64(1); i <= 500; i += 2 {
		_ = w.Upsert(i, i*7)
	}
	for i := uint64(1); i <= 500; i += 2 {
		v, ok := w.Lookup(i)
		if !ok || v != i*7 {
			t.Fatalf("reinsert Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestScanSortedAndComplete(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	// Random insertion order.
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(2000)
	for _, p := range perm {
		_ = w.Upsert(uint64(p+1), uint64(p+1))
	}
	out := make([]KV, 100)
	n := w.Scan(500, 100, out)
	if n != 100 {
		t.Fatalf("Scan returned %d", n)
	}
	for i, kv := range out[:n] {
		want := uint64(500 + i)
		if kv.Key != want || kv.Value != want {
			t.Fatalf("scan[%d] = %+v, want key %d", i, kv, want)
		}
	}
	// Scan past the end.
	n = w.Scan(1995, 100, out)
	if n != 6 {
		t.Fatalf("tail scan returned %d, want 6", n)
	}
}

func TestScanSeesBufferedUpdatesAndSkipsTombstones(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 100; i++ {
		_ = w.Upsert(i, i)
	}
	// Buffered (likely unflushed) updates and deletes.
	_ = w.Upsert(50, 5000)
	_ = w.Delete(51)
	out := make([]KV, 10)
	n := w.Scan(49, 5, out)
	if n != 5 {
		t.Fatalf("scan n=%d", n)
	}
	if out[0].Key != 49 || out[1].Key != 50 || out[1].Value != 5000 {
		t.Fatalf("scan head wrong: %+v", out[:2])
	}
	if out[2].Key != 52 {
		t.Fatalf("tombstoned key not skipped: %+v", out[2])
	}
}

func TestWriteConservativeLoggingRatio(t *testing.T) {
	// With Nbatch = 2, logs = K·Nbatch/(Nbatch+1): one in three inserts
	// is an unlogged trigger write (§3.3).
	tr, w := newTestTree(t, Options{Nbatch: 2, GC: GCOff}, nil)
	const k = 3000
	for i := uint64(1); i <= k; i++ {
		// Same buffer node rarely: use spread keys so triggers happen.
		_ = w.Upsert(i, i)
	}
	c := tr.Counters()
	if c.TriggerWrites == 0 {
		t.Fatal("no trigger writes")
	}
	ratio := float64(c.LoggedWrites) / float64(c.Upserts)
	if ratio < 0.5 || ratio > 0.85 {
		t.Fatalf("logged ratio %.2f, want ≈ 2/3", ratio)
	}
	if c.SkippedLogs != c.TriggerWrites {
		t.Fatalf("skipped %d, triggers %d", c.SkippedLogs, c.TriggerWrites)
	}
}

func TestNaiveLoggingLogsEverything(t *testing.T) {
	tr, w := newTestTree(t, Options{Nbatch: 2, NaiveLogging: true, GC: GCOff}, nil)
	const k = 1000
	for i := uint64(1); i <= k; i++ {
		_ = w.Upsert(i, i)
	}
	c := tr.Counters()
	if c.LoggedWrites != c.Upserts {
		t.Fatalf("naive logging logged %d of %d", c.LoggedWrites, c.Upserts)
	}
}

func TestBaseModeNoBufferNoLog(t *testing.T) {
	tr, w := newTestTree(t, Options{Nbatch: -1, GC: GCOff}, nil)
	for i := uint64(1); i <= 1000; i++ {
		_ = w.Upsert(i, i)
	}
	c := tr.Counters()
	if c.LoggedWrites != 0 {
		t.Fatalf("base mode logged %d", c.LoggedWrites)
	}
	if c.TriggerWrites != c.Upserts {
		t.Fatalf("base mode: every insert must flush (%d vs %d)", c.TriggerWrites, c.Upserts)
	}
	for i := uint64(1); i <= 1000; i++ {
		if v, ok := w.Lookup(i); !ok || v != i {
			t.Fatalf("base Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestBufferHitsServeReads(t *testing.T) {
	tr, w := newTestTree(t, Options{Nbatch: 4, GC: GCOff}, nil)
	for i := uint64(1); i <= 1000; i++ {
		_ = w.Upsert(i, i)
	}
	// Updates of existing keys never split, so their buffered copies
	// stay cached and must serve subsequent reads without touching PM.
	for i := uint64(1); i <= 100; i++ {
		_ = w.Upsert(i*7, i*7+1)
	}
	before := tr.Counters().BufferHits
	hits := 0
	for i := uint64(1); i <= 100; i++ {
		if v, ok := w.Lookup(i * 7); ok && v == i*7+1 {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("lost updates: %d/100", hits)
	}
	if got := tr.Counters().BufferHits - before; got < 50 {
		t.Fatalf("only %d of 100 lookups served from buffer nodes", got)
	}
}

func TestSplitsAndLeafCount(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	const n = 5000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	c := tr.Counters()
	if c.Splits == 0 {
		t.Fatal("no splits for 5000 keys")
	}
	if tr.LeafCount() < n/LeafSlots {
		t.Fatalf("leaf count %d too small", tr.LeafCount())
	}
	// All keys reachable by scan, in order, exactly once.
	out := make([]KV, n+10)
	got := w.Scan(1, n+10, out)
	if got != n {
		t.Fatalf("full scan found %d of %d", got, n)
	}
	for i := 0; i < got; i++ {
		if out[i].Key != uint64(i+1) {
			t.Fatalf("scan[%d] = %d", i, out[i].Key)
		}
	}
}

func TestMergeOnDeletes(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	leaves := tr.LeafCount()
	for i := uint64(1); i <= n; i++ {
		if i%10 != 0 {
			_ = w.Delete(i)
		}
	}
	c := tr.Counters()
	if c.Merges == 0 {
		t.Fatal("no merges after mass deletion")
	}
	if tr.LeafCount() >= leaves {
		t.Fatalf("leaf count did not shrink: %d -> %d", leaves, tr.LeafCount())
	}
	for i := uint64(1); i <= n; i++ {
		v, ok := w.Lookup(i)
		if want := i%10 == 0; ok != want {
			t.Fatalf("Lookup(%d) = %v, want %v", i, ok, want)
		}
		if ok && v != i {
			t.Fatalf("survivor value wrong: %d -> %d", i, v)
		}
	}
	out := make([]KV, n)
	got := w.Scan(1, n, out)
	if got != n/10 {
		t.Fatalf("scan after merge found %d, want %d", got, n/10)
	}
}

func TestRandomOpsAgainstModel(t *testing.T) {
	for _, nbatch := range []int{-1, 1, 2, 4} {
		nbatch := nbatch
		t.Run(fmt.Sprintf("nbatch=%d", nbatch), func(t *testing.T) {
			_, w := newTestTree(t, Options{Nbatch: nbatch, GC: GCOff}, nil)
			ref := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(42))
			const space = 3000
			for op := 0; op < 30000; op++ {
				k := uint64(rng.Intn(space) + 1)
				switch rng.Intn(10) {
				case 0, 1:
					_ = w.Delete(k)
					delete(ref, k)
				case 2:
					v, ok := w.Lookup(k)
					wv, wok := ref[k]
					if ok != wok || (ok && v != wv) {
						t.Fatalf("op %d: Lookup(%d) = %d,%v want %d,%v", op, k, v, ok, wv, wok)
					}
				default:
					v := rng.Uint64()&MaxValue | 1
					_ = w.Upsert(k, v)
					ref[k] = v
				}
			}
			// Final full verification, point and range.
			for k, v := range ref {
				got, ok := w.Lookup(k)
				if !ok || got != v {
					t.Fatalf("final Lookup(%d) = %d,%v want %d", k, got, ok, v)
				}
			}
			out := make([]KV, space+10)
			n := w.Scan(1, space+10, out)
			if n != len(ref) {
				t.Fatalf("scan found %d, model has %d", n, len(ref))
			}
			var prev uint64
			for i := 0; i < n; i++ {
				if out[i].Key <= prev {
					t.Fatalf("scan out of order at %d", i)
				}
				prev = out[i].Key
				if ref[out[i].Key] != out[i].Value {
					t.Fatalf("scan value mismatch at key %d", out[i].Key)
				}
			}
		})
	}
}

func TestGCLocalityPreservesData(t *testing.T) {
	tr, w := newTestTree(t, Options{ChunkBytes: 4096, THlog: 0.05}, nil)
	const n = 8000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	tr.WaitGC()
	if tr.Counters().GCRuns == 0 {
		t.Fatal("GC never triggered despite tiny chunks and low THlog")
	}
	for i := uint64(1); i <= n; i++ {
		v, ok := w.Lookup(i)
		if !ok || v != i {
			t.Fatalf("after GC Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestGCReclaimsChunks(t *testing.T) {
	tr, w := newTestTree(t, Options{ChunkBytes: 4096, GC: GCOff}, nil)
	for i := uint64(1); i <= 4000; i++ {
		_ = w.Upsert(i, i)
	}
	before := tr.LogFootprintBytes()
	if before == 0 {
		t.Fatal("no log footprint")
	}
	tr.opts.GC = GCLocalityAware
	tr.ForceGC()
	after := tr.LogFootprintBytes()
	if after >= before {
		t.Fatalf("GC did not shrink logs: %d -> %d", before, after)
	}
}

func TestNaiveGCPreservesData(t *testing.T) {
	tr, w := newTestTree(t, Options{ChunkBytes: 4096, THlog: 0.05, GC: GCNaive}, nil)
	const n = 6000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	tr.WaitGC()
	if tr.Counters().GCRuns == 0 {
		t.Fatal("naive GC never ran")
	}
	for i := uint64(1); i <= n; i++ {
		v, ok := w.Lookup(i)
		if !ok || v != i {
			t.Fatalf("after naive GC Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestCountersSnapshot(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	_ = w.Upsert(1, 1)
	_ = w.Delete(1)
	_, _ = w.Lookup(1)
	w.Scan(1, 1, make([]KV, 1))
	c := tr.Counters()
	if c.Upserts != 1 || c.Deletes != 1 || c.Lookups != 1 || c.Scans != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}
}

func TestMemoryUsageGrows(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	d0, p0 := tr.MemoryUsage()
	for i := uint64(1); i <= 3000; i++ {
		_ = w.Upsert(i, i)
	}
	d1, p1 := tr.MemoryUsage()
	if d1 <= d0 || p1 <= p0 {
		t.Fatalf("usage did not grow: dram %d->%d pm %d->%d", d0, d1, p0, p1)
	}
}

func TestXBIAmplificationBelowBase(t *testing.T) {
	// The headline claim: buffering + write-conservative logging yields
	// far less media traffic per user byte than direct leaf writes,
	// under a uniform random workload.
	runAmp := func(opts Options) float64 {
		pool := newTestPool(nil)
		opts.ChunkBytes = 64 << 10
		opts.GC = GCOff
		tr, err := New(pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := tr.NewWorker(0)
		rng := rand.New(rand.NewSource(9))
		// Warm.
		const warm, run = 20000, 20000
		for i := 0; i < warm; i++ {
			_ = w.Upsert(uint64(rng.Intn(1<<20)+1), 7)
		}
		pool.ResetStats()
		for i := 0; i < run; i++ {
			_ = w.Upsert(uint64(rng.Intn(1<<20)+1), 9)
		}
		pool.DrainXPBuffers()
		return pool.Stats().XBIAmplification()
	}
	base := runAmp(Options{Nbatch: -1})
	ccl := runAmp(Options{Nbatch: 2})
	if ccl >= base {
		t.Fatalf("CCL XBI (%.1f) not below Base (%.1f)", ccl, base)
	}
}
