package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
	_, wv := newTestTree(t, Options{VarKV: true}, nil)
	// Each group's last op is the malformed one; it must fail with the
	// same sentinel when written alone.
	cases := []struct {
		name string
		w    *Worker
		ops  []BatchOp
		want error
	}{
		{"zero key", w, []BatchOp{{Key: 1, Value: 1}, {Key: 0, Value: 2}}, ErrZeroKey},
		{"var op on fixed tree", w, []BatchOp{{KeyBytes: []byte("k"), ValueBytes: []byte("v")}}, ErrVarKVRequired},
		{"var delete on fixed tree", w, []BatchOp{{Key: 1, Value: 1}, {KeyBytes: []byte("k"), Delete: true}}, ErrVarKVRequired},
		{"fixed op on VarKV tree", wv, []BatchOp{{Key: 5, Value: 5}}, ErrFixedKVRequired},
		{"fixed delete on VarKV tree", wv, []BatchOp{{KeyBytes: []byte("a")}, {Key: 5, Delete: true}}, ErrFixedKVRequired},
		{"value word on VarKV tree", wv, []BatchOp{{KeyBytes: []byte("a"), Value: 5}}, ErrFixedKVRequired},
		{"empty var key", wv, []BatchOp{{KeyBytes: []byte{}}}, ErrZeroKey},
	}
	for _, tc := range cases {
		if err := tc.w.ApplyBatch(tc.ops); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if err := tc.w.Write(&tc.ops[len(tc.ops)-1], false); !errors.Is(err, tc.want) {
			t.Fatalf("%s alone: got %v, want %v", tc.name, err, tc.want)
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
	if err := w.Write(&BatchOp{Key: 2, Value: 2}, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("single write after Freeze: got %v, want ErrClosed", err)
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
// writers and forced GC rounds, each group holding several node locks
// while rounds try-lock their way along the chain, then crashes and
// verifies every acknowledged write survived.
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
}

// TestGroupUpdateOutranksGCCopy steps through a GC round that copies a
// buffered slot's old value into its I-log while a group updating that
// key waits for the node's lock, and then reclaims the old generation.
// The group reads the epoch only once it holds the lock, so its record
// is ticked after the copy and lives in the round's new generation:
// the acknowledged value must recover.
func TestGroupUpdateOutranksGCCopy(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	const key, oldVal, newVal = 42, 1, 2
	applyOps(t, w, []BatchOp{{Key: key, Value: oldVal}}) // buffered, old epoch

	// The round's scan holds the node (runLocalityGC's tryLock) while the
	// group routes to it and spins...
	n := tr.index.Find(w.t, key)
	v, ok := n.tryLock()
	if !ok {
		t.Fatal("node locked")
	}
	done := make(chan error)
	go func() {
		done <- w.ApplyBatch([]BatchOp{{Key: key, Value: newVal}, {Key: key + 1, Value: newVal}})
	}()
	for tr.Counters().Retries == 0 {
		runtime.Gosched()
	}
	// ...the round flips the epoch and copies the old value...
	newE := 1 - tr.epoch.Load()
	tr.epoch.Store(newE)
	if !tr.gcCopyNode(tr.gcWorker(), n, newE) {
		t.Fatal("gc copy failed")
	}
	if tr.Counters().GCCopiedEntries != 1 {
		t.Fatalf("GC copied %d slots, want the one old-epoch slot", tr.Counters().GCCopiedEntries)
	}
	n.unlock(v)
	// ...the group applies, and the round reclaims the old generation.
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tr.reclaimLogs(1 - newE)

	tr.Freeze()
	pool.Crash()
	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Freeze()
	for _, k := range []uint64{key, key + 1} {
		if got, ok := tr2.NewWorker(0).Lookup(k); !ok || got != newVal {
			t.Fatalf("after recovery Lookup(%d) = %d,%v, want the acknowledged %d", k, got, ok, newVal)
		}
	}
}

// TestGroupLogsOnlyBufferedOps: a group logs exactly the ops that end in
// a buffer slot, §3.3's write-conservative rule at every group size. One
// group carries a run that fits its node's buffer and a run that
// overflows another node's: only the fitting op gets a record, the
// overflowing run rides one trigger write, and after a crash every op
// recovers.
func TestGroupLogsOnlyBufferedOps(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	ref := map[uint64]uint64{}
	for k := uint64(10); k <= 2000; k += 10 {
		if err := w.Upsert(k, k); err != nil {
			t.Fatal(err)
		}
		ref[k] = k
	}
	// fit has a free buffer slot; over is any later node. Keys are
	// multiples of 10, so lowKey+1.. are absent and stay in range.
	var fit, over *bufferNode
	for n := tr.head; n != nil && over == nil; n = n.next.Load() {
		if pos, _, _ := unpackHdr(n.hdr.Load()); fit == nil && pos < n.nbatch() {
			fit = n
		} else if fit != nil {
			over = n
		}
	}
	if over == nil {
		t.Fatal("setup: no node with a free slot followed by another node")
	}
	ops := []BatchOp{{Key: fit.lowKey + 1, Value: 7}}
	pos, _, _ := unpackHdr(over.hdr.Load())
	for i := 0; i <= over.nbatch()-pos; i++ { // one op more than the free slots
		ops = append(ops, BatchOp{Key: over.lowKey + 1 + uint64(i), Value: 7})
	}
	c0 := tr.Counters()
	applyOps(t, w, ops)
	c1 := tr.Counters()
	if got := c1.LoggedWrites - c0.LoggedWrites; got != 1 {
		t.Errorf("group logged %d records, want 1: only the fitting op ends in a slot", got)
	}
	if got, want := c1.SkippedLogs-c0.SkippedLogs, uint64(len(ops)-1); got != want {
		t.Errorf("group skipped %d records, want %d: the overflowing run", got, want)
	}
	if got := c1.TriggerWrites - c0.TriggerWrites; got != 1 {
		t.Errorf("group made %d trigger writes, want 1", got)
	}
	for _, op := range ops {
		ref[op.Key] = op.Value
	}

	tr.Freeze()
	pool.Crash()
	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)
	for k, want := range ref {
		if got, ok := w2.Lookup(k); !ok || got != want {
			t.Fatalf("after recovery Lookup(%d) = %d,%v, want %d", k, got, ok, want)
		}
	}
}

func issueSingle(w *Worker, ops []BatchOp) error {
	if ops[0].Delete {
		return w.Delete(ops[0].Key)
	}
	return w.Upsert(ops[0].Key, ops[0].Value)
}

// TestSingleWriteIsGroupOfOne pins what the single write protocol makes
// true: a single write and a one-op ApplyBatch are the same program, for
// fixed words, VarKV pairs and fixed keys with value blobs alike. The
// same stream issued either way logs, skips and flushes identically and
// costs the same virtual time and media traffic.
func TestSingleWriteIsGroupOfOne(t *testing.T) {
	type outcome struct {
		logged, skipped, triggers uint64
		now                       int64
		media                     uint64
	}
	run := func(t *testing.T, opts Options, shape func(*BatchOp), issue func(w *Worker, ops []BatchOp) error) outcome {
		opts.GC = GCOff
		tr, w := newTestTree(t, opts, func(c *pmem.Config) { c.DeviceBytes = 64 << 20 })
		// 20 000 single ops over 4 000 keys, one delete in six.
		rng := rand.New(rand.NewSource(7))
		for range 20000 {
			ops := []BatchOp{{Key: uint64(rng.Intn(4000) + 1)}}
			if rng.Intn(6) == 0 {
				ops[0].Delete = true
			} else {
				ops[0].Value = uint64(rng.Intn(1<<30) + 1)
			}
			shape(&ops[0])
			if err := issue(w, ops); err != nil {
				t.Fatal(err)
			}
		}
		c := tr.Counters()
		if c.TriggerWrites == 0 || c.Splits == 0 || c.SkippedLogs == 0 {
			t.Fatalf("stream too tame to compare: %+v", c)
		}
		return outcome{c.LoggedWrites, c.SkippedLogs, c.TriggerWrites, w.Thread().Now(), tr.Pool().Stats().MediaWriteBytes}
	}
	write := func(w *Worker, ops []BatchOp) error { return w.Write(&ops[0], false) }
	for _, in := range []struct {
		name   string
		opts   Options
		shape  func(*BatchOp)
		single func(w *Worker, ops []BatchOp) error
	}{
		{"fixed", Options{}, func(*BatchOp) {}, issueSingle},
		{"varkv", Options{VarKV: true}, func(op *BatchOp) {
			op.KeyBytes = []byte(fmt.Sprintf("key-%06d", op.Key))
			if !op.Delete {
				op.ValueBytes = []byte(fmt.Sprint(op.Value))
			}
			op.Key, op.Value = 0, 0
		}, write},
		{"large-value", Options{}, func(op *BatchOp) {
			if !op.Delete {
				op.ValueBytes = []byte(fmt.Sprintf("value-%024d", op.Value))
				op.Value = 0
			}
		}, write},
	} {
		t.Run(in.name, func(t *testing.T) {
			singles, groups := run(t, in.opts, in.shape, in.single), run(t, in.opts, in.shape, (*Worker).ApplyBatch)
			if singles != groups {
				t.Fatalf("single writes and one-op ApplyBatch diverge:\n singles %+v\n groups  %+v", singles, groups)
			}
		})
	}
}
