package core

import (
	"bytes"
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
)

// crashAndReopen simulates a power failure and recovers the tree.
// Freeze halts the background GC the way a real power loss halts every
// thread; without it the old tree's GC goroutine would keep mutating
// the pool after the "failure".
func crashAndReopen(t *testing.T, tr *Tree, threads int) (*Tree, *RecoveryStats) {
	t.Helper()
	pool := tr.Pool()
	tr.Freeze()
	pool.Crash()
	tr2, st, err := Open(pool, Options{}, threads)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return tr2, st
}

func TestRecoveryEmptyTree(t *testing.T) {
	tr, _ := newTestTree(t, Options{}, nil)
	tr2, st := crashAndReopen(t, tr, 1)
	if st.Leaves != 1 {
		t.Fatalf("leaves = %d", st.Leaves)
	}
	w := tr2.NewWorker(0)
	if _, ok := w.Lookup(1); ok {
		t.Fatal("phantom key after recovery")
	}
	if err := w.Upsert(1, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.Lookup(1); v != 2 {
		t.Fatal("insert after recovery broken")
	}
}

func TestRecoveryAllCompletedOpsDurable(t *testing.T) {
	// Every completed operation is durable: non-trigger writes persist
	// their WAL entry before returning, trigger writes persist the
	// whole batch. So after a crash at an operation boundary, nothing
	// may be lost.
	tr, w := newTestTree(t, Options{}, nil)
	const n = 5000
	for i := uint64(1); i <= n; i++ {
		if err := w.Upsert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	tr2, st := crashAndReopen(t, tr, 2)
	if st.EntriesReplayed == 0 {
		t.Fatal("no WAL entries replayed; buffering was not exercised")
	}
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= n; i++ {
		v, ok := w2.Lookup(i)
		if !ok || v != i*3 {
			t.Fatalf("lost key %d after crash: %d,%v", i, v, ok)
		}
	}
	out := make([]KV, n+10)
	if got := w2.Scan(1, n+10, out); got != n {
		t.Fatalf("scan after recovery: %d of %d", got, n)
	}
}

func TestRecoveryUpdatesWin(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 500; i++ {
		_ = w.Upsert(i, 1)
	}
	for i := uint64(1); i <= 500; i++ {
		_ = w.Upsert(i, i+10000) // newer versions, some buffered
	}
	tr2, _ := crashAndReopen(t, tr, 1)
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= 500; i++ {
		v, ok := w2.Lookup(i)
		if !ok || v != i+10000 {
			t.Fatalf("stale version for %d after crash: %d,%v", i, v, ok)
		}
	}
}

func TestRecoveryDeletesSurvive(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 500; i++ {
		_ = w.Upsert(i, i)
	}
	for i := uint64(1); i <= 500; i += 3 {
		_ = w.Delete(i)
	}
	tr2, _ := crashAndReopen(t, tr, 1)
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= 500; i++ {
		_, ok := w2.Lookup(i)
		want := i%3 != 1
		if ok != want {
			t.Fatalf("key %d: present=%v want %v", i, ok, want)
		}
	}
}

func TestRecoveryAfterGC(t *testing.T) {
	// GC recycles chunks; stale entries in recycled chunks must not
	// resurrect old versions.
	tr, w := newTestTree(t, Options{ChunkBytes: 4096, THlog: 0.02}, nil)
	const n = 4000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	tr.ForceGC()
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i+7) // second generation of values
	}
	tr.ForceGC()
	tr.WaitGC()
	if tr.Counters().GCRuns < 2 {
		t.Fatalf("gc runs = %d", tr.Counters().GCRuns)
	}
	tr2, _ := crashAndReopen(t, tr, 2)
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= n; i++ {
		v, ok := w2.Lookup(i)
		if !ok || v != i+7 {
			t.Fatalf("key %d after GC+crash: %d,%v want %d", i, v, ok, i+7)
		}
	}
}

func TestRecoveryRandomCrashPoints(t *testing.T) {
	// Property-style: run a random workload, crash after a random
	// prefix of ops, recover, and check the tree matches the model of
	// the completed prefix exactly.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		tr, w := newTestTree(t, Options{ChunkBytes: 8192}, nil)
		ref := map[uint64]uint64{}
		nOps := 500 + rng.Intn(4000)
		for op := 0; op < nOps; op++ {
			k := uint64(rng.Intn(800) + 1)
			if rng.Intn(5) == 0 {
				_ = w.Delete(k)
				delete(ref, k)
			} else {
				v := uint64(rng.Intn(1 << 30))
				if v == 0 {
					v = 1
				}
				_ = w.Upsert(k, v)
				ref[k] = v
			}
		}
		tr2, _ := crashAndReopen(t, tr, 1+rng.Intn(3))
		w2 := tr2.NewWorker(0)
		for k := uint64(1); k <= 800; k++ {
			v, ok := w2.Lookup(k)
			wv, wok := ref[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("trial %d nOps %d: key %d = %d,%v want %d,%v", trial, nOps, k, v, ok, wv, wok)
			}
		}
		out := make([]KV, 900)
		got := w2.Scan(1, 900, out)
		if got != len(ref) {
			t.Fatalf("trial %d: scan %d, model %d", trial, got, len(ref))
		}
	}
}

func TestDoubleCrash(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 1000; i++ {
		_ = w.Upsert(i, i)
	}
	tr2, _ := crashAndReopen(t, tr, 1)
	w2 := tr2.NewWorker(0)
	for i := uint64(1001); i <= 2000; i++ {
		_ = w2.Upsert(i, i)
	}
	tr3, _ := crashAndReopen(t, tr2, 2)
	w3 := tr3.NewWorker(0)
	for i := uint64(1); i <= 2000; i++ {
		v, ok := w3.Lookup(i)
		if !ok || v != i {
			t.Fatalf("after double crash key %d: %d,%v", i, v, ok)
		}
	}
}

func TestRecoveryReclaimsEmptyLeaves(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 400; i++ {
		_ = w.Upsert(i, i)
	}
	// Delete a contiguous band so at least one leaf empties fully
	// without merging (merges need sibling space; make them unlikely
	// by deleting everything).
	for i := uint64(1); i <= 400; i++ {
		_ = w.Delete(i)
	}
	tr2, st := crashAndReopen(t, tr, 1)
	_ = st // empty-leaf reclamation is opportunistic; correctness below
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= 400; i++ {
		if _, ok := w2.Lookup(i); ok {
			t.Fatalf("deleted key %d resurrected", i)
		}
	}
	// Tree still functional.
	_ = w2.Upsert(5, 55)
	if v, _ := w2.Lookup(5); v != 55 {
		t.Fatal("insert after mass delete + crash broken")
	}
}

func TestRecoveryAcrossProcessImage(t *testing.T) {
	// Full serialize/deserialize through SavePersistent, as a process
	// restart would do.
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 800; i++ {
		_ = w.Upsert(i, i*2)
	}
	pool := tr.Pool()
	var bufs []*bytes.Buffer
	for s := 0; s < pool.Sockets(); s++ {
		var b bytes.Buffer
		if err := pool.SavePersistent(s, &b); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, &b)
	}
	pool2 := newTestPool(nil)
	for s := range bufs {
		if err := pool2.LoadPersistent(s, bufs[s]); err != nil {
			t.Fatal(err)
		}
	}
	tr2, _, err := Open(pool2, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= 800; i++ {
		v, ok := w2.Lookup(i)
		if !ok || v != i*2 {
			t.Fatalf("restart lost key %d: %d,%v", i, v, ok)
		}
	}
}

// TestRecoveryStartsAtRestart checks that recovery runs on a timeline
// that starts when the pool restarts: a crashed pool, whose DIMMs served
// the whole pre-crash run, recovers in the same modeled time as the same
// image loaded into a fresh pool. Two threads recover faster than one.
func TestRecoveryStartsAtRestart(t *testing.T) {
	const keys = 50_000
	recoverBoth := func(threads int) (crashed, reloaded int64) {
		// GC off: one writer then builds the same image every time.
		tr, w := newTestTree(t, Options{GC: GCOff}, nil)
		for i := uint64(1); i <= keys; i++ {
			if err := w.Upsert(i*0x9E3779B97F4A7C15>>24+1, i); err != nil {
				t.Fatal(err)
			}
		}
		tr.Freeze()
		pool := tr.Pool()
		img := saveImage(t, pool)
		pool.Crash()
		_, st, err := Open(pool, Options{}, threads)
		if err != nil {
			t.Fatal(err)
		}
		_, st2, err := Open(img.loadInto(t, newTestPool(nil)), Options{}, threads)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d thread(s): %.2f ms after Crash, %.2f ms after LoadPersistent",
			threads, float64(st.VirtualNS)/1e6, float64(st2.VirtualNS)/1e6)
		return st.VirtualNS, st2.VirtualNS
	}
	c1, r1 := recoverBoth(1)
	if c1 != r1 {
		t.Errorf("1 thread: recovery after Crash took %d ns, after LoadPersistent %d ns", c1, r1)
	}
	// Two threads share the DIMM arbiters, and the host schedule decides
	// the order their media operations arrive in: the walk and the scan
	// each stall more or less for it, a few percent either way. A restart
	// that kept the pre-crash DIMM work would cost several times that.
	c2, r2 := recoverBoth(2)
	if d := max(c2, r2) - min(c2, r2); d*10 > r2 {
		t.Errorf("2 threads: recovery after Crash took %d ns, after LoadPersistent %d ns", c2, r2)
	}
	if r2 >= r1 {
		t.Errorf("2 threads recover in %d ns, 1 thread in %d ns", r2, r1)
	}
}

func TestOpenRejectsEmptyPool(t *testing.T) {
	pool := newTestPool(nil)
	if _, _, err := Open(pool, Options{}, 1); err == nil {
		t.Fatal("Open on empty pool succeeded")
	}
}

func TestRecoveryStatsPlausible(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 2000; i++ {
		_ = w.Upsert(i, i)
	}
	_, st := crashAndReopen(t, tr, 2)
	if st.Leaves < 2000/LeafSlots {
		t.Fatalf("leaves %d", st.Leaves)
	}
	if st.VirtualNS <= 0 {
		t.Fatal("no virtual time recorded")
	}
	if st.EntriesSeen < st.EntriesReplayed {
		t.Fatalf("seen %d < replayed %d", st.EntriesSeen, st.EntriesReplayed)
	}
}

func TestParallelRecoveryMatchesSerial(t *testing.T) {
	build := func() *pmem.Pool {
		pool := newTestPool(nil)
		tr, err := New(pool, Options{ChunkBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		w := tr.NewWorker(0)
		rng := rand.New(rand.NewSource(3))
		for op := 0; op < 6000; op++ {
			k := uint64(rng.Intn(2000) + 1)
			_ = w.Upsert(k, k+uint64(op))
		}
		tr.Freeze()
		pool.Crash()
		return pool
	}
	results := map[int]map[uint64]uint64{}
	for _, threads := range []int{1, 4} {
		pool := build()
		tr, _, err := Open(pool, Options{}, threads)
		if err != nil {
			t.Fatal(err)
		}
		w := tr.NewWorker(0)
		got := map[uint64]uint64{}
		out := make([]KV, 2100)
		n := w.Scan(1, 2100, out)
		for _, kv := range out[:n] {
			got[kv.Key] = kv.Value
		}
		results[threads] = got
	}
	if len(results[1]) != len(results[4]) {
		t.Fatalf("serial %d keys, parallel %d", len(results[1]), len(results[4]))
	}
	for k, v := range results[1] {
		if results[4][k] != v {
			t.Fatalf("key %d: serial %d parallel %d", k, v, results[4][k])
		}
	}
}
