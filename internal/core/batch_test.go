package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cclbtree/internal/pmem"
)

// applyOps is a test shorthand: apply ops and fail on error.
func applyOps(t *testing.T, w *Worker, ops []BatchOp) {
	t.Helper()
	if err := w.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchMatchesReference(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	const keySpace = 600
	for round := 0; round < 120; round++ {
		n := 1 + rng.Intn(48)
		ops := make([]BatchOp, 0, n)
		for i := 0; i < n; i++ {
			k := uint64(1 + rng.Intn(keySpace))
			if rng.Intn(5) == 0 {
				ops = append(ops, BatchOp{Key: k, Delete: true})
				delete(ref, k)
			} else {
				v := rng.Uint64()%MaxValue + 1
				ops = append(ops, BatchOp{Key: k, Value: v})
				ref[k] = v
			}
		}
		applyOps(t, w, ops)
	}
	for k := uint64(1); k <= keySpace; k++ {
		v, ok := w.Lookup(k)
		want, wantOK := ref[k]
		if ok != wantOK || (ok && v != want) {
			t.Fatalf("Lookup(%d) = %d,%v; want %d,%v", k, v, ok, want, wantOK)
		}
	}
	// The scan must agree too (exercises leaf contents, not just the
	// buffer-node read path).
	out := make([]KV, keySpace+1)
	n := w.Scan(1, len(out), out)
	if n != len(ref) {
		t.Fatalf("Scan found %d entries, reference holds %d", n, len(ref))
	}
	for _, kv := range out[:n] {
		if ref[kv.Key] != kv.Value {
			t.Fatalf("Scan: key %d = %d, want %d", kv.Key, kv.Value, ref[kv.Key])
		}
	}
}

func TestApplyBatchSameKeyLastWins(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	applyOps(t, w, []BatchOp{
		{Key: 10, Value: 1},
		{Key: 10, Value: 2},
		{Key: 11, Value: 5},
		{Key: 10, Value: 3},
		{Key: 11, Delete: true},
	})
	if v, ok := w.Lookup(10); !ok || v != 3 {
		t.Fatalf("Lookup(10) = %d,%v; want 3,true", v, ok)
	}
	if _, ok := w.Lookup(11); ok {
		t.Fatal("key 11 should have been deleted by the later op")
	}
}

func TestApplyBatchClusteredSplits(t *testing.T) {
	// Dense sequential batches force repeated coalesced trigger writes
	// and leaf splits mid-run.
	tr, w := newTestTree(t, Options{}, nil)
	const total = 4000
	var ops []BatchOp
	for i := 1; i <= total; i++ {
		ops = append(ops, BatchOp{Key: uint64(i), Value: uint64(i) * 2})
		if len(ops) == 64 {
			applyOps(t, w, ops)
			ops = ops[:0]
		}
	}
	applyOps(t, w, ops)
	for i := uint64(1); i <= total; i++ {
		if v, ok := w.Lookup(i); !ok || v != i*2 {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	c := tr.Counters()
	if c.BatchApplies == 0 || c.BatchedOps != total {
		t.Fatalf("counters: applies=%d batchedOps=%d, want batchedOps=%d",
			c.BatchApplies, c.BatchedOps, total)
	}
}

func TestApplyBatchVarKV(t *testing.T) {
	_, w := newTestTree(t, Options{VarKV: true}, nil)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val-%d", i)) }
	var ops []BatchOp
	for i := 0; i < 300; i++ {
		ops = append(ops, BatchOp{KeyBytes: key(i), ValueBytes: val(i)})
		if len(ops) == 32 {
			applyOps(t, w, ops)
			ops = ops[:0]
		}
	}
	applyOps(t, w, ops)
	applyOps(t, w, []BatchOp{
		{KeyBytes: key(7), ValueBytes: []byte("fresh")},
		{KeyBytes: key(8), Delete: true},
	})
	if v, ok := w.LookupVar(key(7)); !ok || string(v) != "fresh" {
		t.Fatalf("LookupVar(key-7) = %q,%v", v, ok)
	}
	if _, ok := w.LookupVar(key(8)); ok {
		t.Fatal("key-8 survived batched delete")
	}
	if v, ok := w.LookupVar(key(250)); !ok || string(v) != "val-250" {
		t.Fatalf("LookupVar(key-250) = %q,%v", v, ok)
	}
}

func TestApplyBatchValidation(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	cases := []struct {
		name string
		ops  []BatchOp
		want error
	}{
		{"zero key", []BatchOp{{Key: 1, Value: 1}, {Key: 0, Value: 2}}, ErrZeroKey},
		{"var op on fixed tree", []BatchOp{{KeyBytes: []byte("k"), ValueBytes: []byte("v")}}, ErrVarKVRequired},
	}
	for _, tc := range cases {
		if err := w.ApplyBatch(tc.ops); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Validation failures must have no side effects: op 1 above was
	// valid but preceded an invalid op.
	if _, ok := w.Lookup(1); ok {
		t.Fatal("rejected batch applied its valid prefix")
	}
	if c := tr.Counters(); c.Upserts != 0 || c.BatchApplies != 0 {
		t.Fatalf("rejected batches moved counters: %+v", c)
	}

	// Tombstone value without the Delete flag; keys carrying the tag bits,
	// for puts and deletes alike.
	if err := w.ApplyBatch([]BatchOp{{Key: 3, Value: Tombstone}}); err == nil {
		t.Fatal("tombstone value accepted without Delete")
	}
	if err := w.ApplyBatch([]BatchOp{{Key: 3<<62 | 5, Value: 1}}); err == nil {
		t.Fatal("put of a key above MaxValue accepted")
	}
	if err := w.ApplyBatch([]BatchOp{{Key: 3<<62 | 5, Delete: true}}); err == nil {
		t.Fatal("delete of a key above MaxValue accepted")
	}

	tr.Freeze()
	if err := w.ApplyBatch([]BatchOp{{Key: 2, Value: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Freeze: got %v, want ErrClosed", err)
	}

	_, wv := newTestTree(t, Options{VarKV: true}, nil)
	if err := wv.ApplyBatch([]BatchOp{{Key: 5, Value: 5}}); !errors.Is(err, ErrFixedKVRequired) {
		t.Fatalf("fixed op on VarKV tree: got %v, want ErrFixedKVRequired", err)
	}
	if err := wv.ApplyBatch([]BatchOp{{KeyBytes: []byte{}}}); !errors.Is(err, ErrZeroKey) {
		t.Fatalf("empty var key: got %v, want ErrZeroKey", err)
	}
}

func TestApplyBatchEmptyAndNil(t *testing.T) {
	_, w := newTestTree(t, Options{}, nil)
	if err := w.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyBatch([]BatchOp{}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchSurvivesRecovery checks the group commit's durability:
// everything applied before a crash is found after recovery.
func TestApplyBatchSurvivesRecovery(t *testing.T) {
	pool := newTestPool(nil)
	tr, err := New(pool, Options{ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	const total = 2000
	var ops []BatchOp
	for i := 1; i <= total; i++ {
		ops = append(ops, BatchOp{Key: uint64(i), Value: uint64(i) + 7})
		if len(ops) == 32 {
			applyOps(t, w, ops)
			ops = ops[:0]
		}
	}
	applyOps(t, w, ops)
	tr.Freeze()
	pool.Crash()
	tr2, _, err := Open(pool, Options{ChunkBytes: 16 << 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= total; i++ {
		if v, ok := w2.Lookup(i); !ok || v != i+7 {
			t.Fatalf("after recovery Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestApplyBatchConcurrentWithGC races batched writers against per-op
// writers and forced GC rounds, exercising the epochGen re-log path,
// then crashes and verifies every acknowledged write survived.
func TestApplyBatchConcurrentWithGC(t *testing.T) {
	pool := newTestPool(func(c *pmem.Config) { c.DeviceBytes = 64 << 20 })
	tr, err := New(pool, Options{ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		rounds  = 60
		batchN  = 24
	)
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := tr.NewWorker(wid % pool.Sockets())
			rng := rand.New(rand.NewSource(int64(wid) * 101))
			base := uint64(wid) * 1_000_000
			for r := 0; r < rounds; r++ {
				if r%3 == 2 {
					// Interleave the per-op path on the same key range.
					k := base + uint64(rng.Intn(rounds*batchN)) + 1
					if err := w.Upsert(k, k); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				ops := make([]BatchOp, batchN)
				for i := range ops {
					k := base + uint64(r*batchN+i) + 1
					ops[i] = BatchOp{Key: k, Value: k}
				}
				if err := w.ApplyBatch(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}(wid)
	}
	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.ForceGC()
			}
		}
	}()
	wg.Wait()
	close(stop)
	gcWG.Wait()
	if t.Failed() {
		return
	}

	tr.Freeze()
	pool.Crash()
	tr2, _, err := Open(pool, Options{ChunkBytes: 16 << 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2 := tr2.NewWorker(0)
	for wid := 0; wid < writers; wid++ {
		base := uint64(wid) * 1_000_000
		for r := 0; r < rounds; r++ {
			if r%3 == 2 {
				continue // per-op upserts hit keys batches also wrote
			}
			for i := 0; i < batchN; i++ {
				k := base + uint64(r*batchN+i) + 1
				if v, ok := w2.Lookup(k); !ok || v != k {
					t.Fatalf("worker %d key %d lost after crash: %d,%v", wid, k, v, ok)
				}
			}
		}
	}
	c := tr2.Counters()
	t.Logf("batchRelogs after %d forced GC interleavings: %d", c.GCRuns, c.BatchRelogs)
}

// TestBatchRelogsWhenGCCopyOvertakesGroupCommit replays, step by step,
// the interleaving that lost an acknowledged batch write: a GC round
// flips the epoch, THEN a batch stamps its group commit (so the batch
// sees the round's generation and nothing looks stale), THEN the
// round's scan reaches the node — before the batch locks it — and
// copies the slot's old value into its I-log with a newer tick. The
// batch's in-buffer update must re-log, or recovery's newest-tick
// dedup resurrects the old value.
func TestBatchRelogsWhenGCCopyOvertakesGroupCommit(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	const key, oldVal, newVal = 42, 1, 2
	applyOps(t, w, []BatchOp{{Key: key, Value: oldVal}}) // buffered, old epoch

	// The GC round starts (runLocalityGC's flip)...
	gw := tr.gcWorker()
	newE := 1 - tr.epoch.Load()
	tr.epoch.Store(newE)
	tr.epochGen.Add(1)
	// ...the batch commits its records (ApplyBatch's first half)...
	gen, e := tr.epochGen.Load(), tr.epoch.Load()
	kvs := []KV{{key, newVal}}
	minTS, err := w.groupCommit(kvs, e)
	if err != nil {
		t.Fatal(err)
	}
	// ...the scan visits the node...
	n := tr.findBuffer(w.t, key)
	v, ok := n.tryLock()
	if !ok {
		t.Fatal("node locked")
	}
	if !tr.gcCopyNode(gw, n, newE) {
		t.Fatal("gc copy failed")
	}
	n.unlock(v)
	if tr.Counters().GCCopiedEntries != 1 {
		t.Fatalf("GC copied %d slots, want the one old-epoch slot", tr.Counters().GCCopiedEntries)
	}
	// ...and only now does the batch apply (ApplyBatch's second half).
	if err := w.applySorted(kvs, gen, e, minTS); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counters().BatchRelogs; got != 1 {
		t.Fatalf("batch re-logged %d records, want 1: its record is older than the GC's copy of the old value", got)
	}

	tr.Freeze()
	pool.Crash()
	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Freeze()
	if got, ok := tr2.NewWorker(0).Lookup(key); !ok || got != newVal {
		t.Fatalf("after recovery Lookup(%d) = %d,%v, want the acknowledged %d", key, got, ok, newVal)
	}
}

// TestSingleWriteIsGroupOfOne pins what the single write protocol makes
// true: Upsert/Delete and a one-op ApplyBatch are the same program. The
// same stream issued either way logs, skips and flushes identically and
// costs the same virtual time and media traffic.
func TestSingleWriteIsGroupOfOne(t *testing.T) {
	type outcome struct {
		logged, skipped, triggers uint64
		now                       int64
		media                     uint64
	}
	run := func(issue func(w *Worker, ops []BatchOp) error) outcome {
		tr, w := newTestTree(t, Options{GC: GCOff}, nil)
		crashWorkload(7, 20000, 1, 4000, func(ops []BatchOp) {
			if err := issue(w, ops); err != nil {
				t.Fatal(err)
			}
		})
		c := tr.Counters()
		if c.TriggerWrites == 0 || c.Splits == 0 || c.SkippedLogs == 0 {
			t.Fatalf("stream too tame to compare: %+v", c)
		}
		return outcome{c.LoggedWrites, c.SkippedLogs, c.TriggerWrites, w.Thread().Now(), tr.Pool().Stats().MediaWriteBytes}
	}
	singles, groups := run(issueSingle), run((*Worker).ApplyBatch)
	if singles != groups {
		t.Fatalf("Upsert/Delete and one-op ApplyBatch diverge:\n singles %+v\n groups  %+v", singles, groups)
	}
}
