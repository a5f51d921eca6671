package cclhash

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

func testPool() *pmem.Pool { return testPoolMode(pmem.ADR) }

func testPoolMode(mode pmem.Mode) *pmem.Pool {
	return pmem.NewPool(pmem.Config{
		Sockets:        2,
		DIMMsPerSocket: 2,
		DeviceBytes:    64 << 20,
		XPBufferLines:  16,
		CacheLines:     1 << 13,
		Mode:           mode,
	})
}

func newTable(t *testing.T, opts Options) (*Table, *Worker) {
	t.Helper()
	return newTableOn(t, testPool(), opts)
}

func newTableOn(t *testing.T, pool *pmem.Pool, opts Options) (*Table, *Worker) {
	t.Helper()
	if opts.Buckets == 0 {
		opts.Buckets = 1 << 10
	}
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = 16 << 10
	}
	h, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h, h.NewWorker(0)
}

func TestPutGetRoundtrip(t *testing.T) {
	_, w := newTable(t, Options{})
	for i := uint64(1); i <= 20000; i++ {
		if err := w.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 20000; i++ {
		v, ok := w.Get(i)
		if !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := w.Get(99999999); ok {
		t.Fatal("phantom key")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	_, w := newTable(t, Options{})
	for i := uint64(1); i <= 3000; i++ {
		_ = w.Put(i, 1)
	}
	for i := uint64(1); i <= 3000; i++ {
		_ = w.Put(i, i+7)
	}
	for i := uint64(1); i <= 3000; i += 2 {
		if err := w.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 3000; i++ {
		v, ok := w.Get(i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get(%d) = %v want %v", i, ok, want)
		}
		if ok && v != i+7 {
			t.Fatalf("Get(%d) = %d", i, v)
		}
	}
	// Reinsert deleted keys reuses their cleared slots.
	for i := uint64(1); i <= 3000; i += 2 {
		_ = w.Put(i, i*9)
	}
	for i := uint64(1); i <= 3000; i += 2 {
		if v, ok := w.Get(i); !ok || v != i*9 {
			t.Fatalf("reinsert Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestOverflowChains(t *testing.T) {
	// Tiny table: force long chains.
	h, w := newTable(t, Options{Buckets: 4})
	const n = 500
	for i := uint64(1); i <= n; i++ {
		if err := w.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if overflow := h.LeafCount() - int64(h.d.n); overflow == 0 {
		t.Fatal("no overflow buckets despite 500 keys in 4 buckets")
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := w.Get(i); !ok || v != i {
			t.Fatalf("chained Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestWriteConservativeLoggingHash(t *testing.T) {
	h, w := newTable(t, Options{Nbatch: 2, DisableGC: true})
	const n = 9000
	for i := uint64(1); i <= n; i++ {
		_ = w.Put(i, i)
	}
	trig, logged := h.Counters().TriggerWrites, h.Counters().LoggedWrites
	if trig == 0 {
		t.Fatal("no trigger writes")
	}
	ratio := float64(logged) / float64(n)
	if ratio < 0.55 || ratio > 0.8 {
		t.Fatalf("logged ratio %.2f, want ≈2/3", ratio)
	}
}

// TestRandomOpsAgainstModelHash runs random puts, deletes and gets
// against a map, then compares the whole key space again after a
// freeze, crash and recovery. The 64-bucket table grows overflow
// chains, where a put can land in a home-bucket slot that a delete
// freed while an older copy of its key still sits further down the
// chain.
func TestRandomOpsAgainstModelHash(t *testing.T) {
	for _, buckets := range []int{1 << 10, 64} {
		t.Run(fmt.Sprintf("buckets=%d", buckets), func(t *testing.T) {
			opts := Options{Buckets: buckets}
			h, w := newTable(t, opts)
			const keys = 2000
			ref := map[uint64]uint64{}
			check := func(when string, w *Worker) {
				t.Helper()
				for k := uint64(1); k <= keys; k++ {
					v, ok := w.Get(k)
					if wv, wok := ref[k]; ok != wok || (ok && v != wv) {
						t.Fatalf("%s: Get(%d) = %d,%v want %d,%v", when, k, v, ok, wv, wok)
					}
				}
			}
			rng := rand.New(rand.NewSource(12))
			for op := 0; op < 30000; op++ {
				k := uint64(rng.Intn(keys) + 1)
				switch rng.Intn(10) {
				case 0, 1:
					_ = w.Delete(k)
					delete(ref, k)
				case 2:
					v, ok := w.Get(k)
					wv, wok := ref[k]
					if ok != wok || (ok && v != wv) {
						t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, v, ok, wv, wok)
					}
				default:
					v := rng.Uint64() | 1
					_ = w.Put(k, v)
					ref[k] = v
				}
			}
			check("final", w)
			h.Freeze()
			h.Pool().Crash()
			h2, err := Recover(h.Pool(), Options{Buckets: buckets, ChunkBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			check("after recovery", h2.NewWorker(0))
		})
	}
}

func TestHashGCPreservesData(t *testing.T) {
	h, w := newTable(t, Options{ChunkBytes: 4096, THlog: 0.02})
	const n = 20000
	for i := uint64(1); i <= n; i++ {
		_ = w.Put(i, i)
	}
	h.ForceGC()
	if runs := h.Counters().GCRuns; runs == 0 {
		t.Fatal("GC never ran")
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := w.Get(i); !ok || v != i {
			t.Fatalf("after GC Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestHashCrashRecovery(t *testing.T) {
	pool := testPool()
	opts := Options{Buckets: 1 << 10, ChunkBytes: 16 << 10, DisableGC: true}
	h, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := h.NewWorker(0)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 8000; op++ {
		k := uint64(rng.Intn(1500) + 1)
		if rng.Intn(6) == 0 {
			_ = w.Delete(k)
			delete(ref, k)
		} else {
			v := rng.Uint64() | 1
			_ = w.Put(k, v)
			ref[k] = v
		}
	}
	h.Freeze()
	pool.Crash()
	h2, err := Recover(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w2 := h2.NewWorker(0)
	for k := uint64(1); k <= 1500; k++ {
		v, ok := w2.Get(k)
		wv, wok := ref[k]
		if ok != wok || (ok && v != wv) {
			t.Fatalf("key %d after crash: %d,%v want %d,%v", k, v, ok, wv, wok)
		}
	}
	// The recovered table keeps working.
	if err := w2.Put(9999999, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok := w2.Get(9999999); !ok || v != 1 {
		t.Fatal("post-recovery insert broken")
	}
}

func TestHashCrashMidFlushSweep(t *testing.T) {
	// Power failure at assorted flush boundaries, in both persistence
	// domains (flushes are counted under eADR too, so the ordinals name
	// the same sites); completed ops must survive, the in-flight op
	// must be atomic.
	for _, mode := range []pmem.Mode{pmem.ADR, pmem.EADR} {
		for _, point := range []int64{3, 17, 49, 111, 222, 467, 900, 1500} {
			hashCrashAt(t, mode, point)
		}
	}
}

func hashCrashAt(t *testing.T, mode pmem.Mode, point int64) {
	pool := testPoolMode(mode)
	opts := Options{Buckets: 1 << 8, ChunkBytes: 16 << 10, DisableGC: true}
	h, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := h.NewWorker(0)
	ref := map[uint64]uint64{}
	var inKey, inVal uint64
	crashed := pmem.Survive(func() {
		rng := rand.New(rand.NewSource(77))
		base := pool.FlushCalls()
		pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == base+point })
		for op := 0; op < 3000; op++ {
			k := uint64(rng.Intn(400) + 1)
			v := rng.Uint64() | 1
			inKey, inVal = k, v
			_ = w.Put(k, v)
			ref[k] = v
		}
	})
	pool.FailWhen(nil) // disarm before recovery flushes
	if !crashed {
		t.Fatalf("mode %d point %d: fault never fired", mode, point)
	}
	pool.Crash()
	h2, err := Recover(pool, opts)
	if err != nil {
		t.Fatalf("mode %d point %d: %v", mode, point, err)
	}
	w2 := h2.NewWorker(0)
	for k, v := range ref {
		if k == inKey {
			continue
		}
		got, ok := w2.Get(k)
		if !ok || got != v {
			t.Fatalf("mode %d point %d: completed key %d lost (%d,%v want %d)", mode, point, k, got, ok, v)
		}
	}
	got, ok := w2.Get(inKey)
	if ok && got != inVal && got == 0 {
		t.Fatalf("mode %d point %d: in-flight key %d garbage: %d", mode, point, inKey, got)
	}
}

// TestHashCrashInsideRecover cuts power at every flush of Recover
// itself, crashes, recovers again from the same chunk set, and requires
// every acknowledged write. The crash image is built once and loaded
// into a fresh pool per point; -short takes every fifth point.
func TestHashCrashInsideRecover(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 5
	}
	opts := Options{Buckets: 1 << 8, ChunkBytes: 16 << 10, DisableGC: true}
	newPool := func() *pmem.Pool {
		return pmem.NewPool(pmem.Config{
			Sockets: 2, DIMMsPerSocket: 2, DeviceBytes: 1 << 20, XPBufferLines: 16, CacheLines: 1 << 13,
		})
	}
	pool := newPool()
	h, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := h.NewWorker(0)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 3000; op++ {
		k := uint64(rng.Intn(1000) + 1)
		if rng.Intn(6) == 0 {
			_ = w.Delete(k)
			delete(ref, k)
		} else {
			v := rng.Uint64() | 1
			_ = w.Put(k, v)
			ref[k] = v
		}
	}
	h.Freeze()
	pool.Crash()
	img := make([]bytes.Buffer, pool.Sockets())
	for s := range img {
		if err := pool.SavePersistent(s, &img[s]); err != nil {
			t.Fatal(err)
		}
	}
	load := func() *pmem.Pool {
		p := newPool()
		for s := range img {
			if err := p.LoadPersistent(s, bytes.NewReader(img[s].Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	// lost reports the first acknowledged write h does not hold.
	lost := func(h *Table) string {
		w := h.NewWorker(0)
		for k := uint64(1); k <= 1000; k++ {
			v, ok := w.Get(k)
			if wv, wok := ref[k]; ok != wok || v != wv {
				return fmt.Sprintf("key %d reads %d,%v, want %d,%v", k, v, ok, wv, wok)
			}
		}
		return ""
	}

	p := load()
	base := p.FlushCalls()
	h2, err := Recover(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if msg := lost(h2); msg != "" {
		t.Fatalf("uninterrupted recovery: %s", msg)
	}
	flushes := p.FlushCalls() - base
	t.Logf("%d recovery flushes", flushes)
	var bad []string
	for k := int64(1); k <= flushes; k += stride {
		p := load()
		base := p.FlushCalls()
		p.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == base+k })
		pmem.Survive(func() { _, err = Recover(p, opts) })
		p.FailWhen(nil)
		if err != nil {
			t.Fatalf("flush %d: %v", k, err)
		}
		p.Crash()
		h3, err := Recover(p, opts)
		if err != nil {
			t.Fatalf("flush %d: reopen: %v", k, err)
		}
		if msg := lost(h3); msg != "" {
			bad = append(bad, fmt.Sprintf("flush %d: %s", k, msg))
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d of %d crash points lost acknowledged writes; first: %s",
			len(bad), (flushes+stride-1)/stride, bad[0])
	}
}

func TestHashConcurrent(t *testing.T) {
	h, _ := newTable(t, Options{})
	const workers = 6
	const per = 4000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := h.NewWorker(g % 2)
			base := uint64(g*per + 1)
			for i := uint64(0); i < per; i++ {
				if err := w.Put(base+i, base+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w := h.NewWorker(0)
	for k := uint64(1); k <= workers*per; k++ {
		if v, ok := w.Get(k); !ok || v != k {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
}

func TestHashXBIBelowNaive(t *testing.T) {
	// The §6 claim in numbers: buffered buckets + write-conservative
	// logging beat a flush-per-insert table on media traffic.
	run := func(nbatch int) float64 {
		pool := testPool()
		h, err := New(pool, Options{Buckets: 1 << 12, Nbatch: nbatch, ChunkBytes: 64 << 10, DisableGC: true})
		if err != nil {
			t.Fatal(err)
		}
		w := h.NewWorker(0)
		rng := rand.New(rand.NewSource(5))
		const warm, run = 20000, 20000
		for i := 0; i < warm; i++ {
			_ = w.Put(uint64(rng.Intn(1<<20)+1), 7)
		}
		pool.ResetStats()
		for i := 0; i < run; i++ {
			_ = w.Put(uint64(rng.Intn(1<<20)+1), 9)
		}
		pool.DrainXPBuffers()
		return float64(pool.Stats().MediaWriteBytes) / (run * 16)
	}
	naive := run(-1) // Nbatch 0: every put flushes
	ccl := run(2)
	if ccl >= naive {
		t.Fatalf("hash XBI with buffering (%.1f) not below naive (%.1f)", ccl, naive)
	}
}

// TestImageKindMismatchRejected opens a hash table's image as a tree and
// a tree's image as a hash table: the superblock's directory bit makes
// both fail instead of walking the other index's lines as their own.
func TestImageKindMismatchRejected(t *testing.T) {
	opts := Options{Buckets: 1 << 6, ChunkBytes: 16 << 10}
	pool := testPool()
	h, w := newTableOn(t, pool, opts)
	for k := uint64(1); k <= 300; k++ {
		if err := w.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	h.Freeze()
	pool.Crash()
	if _, _, err := core.Open(pool, core.Options{ChunkBytes: 16 << 10}, 1); err == nil {
		t.Fatal("a hash table's image opened as a tree")
	}
	if _, err := Recover(pool, opts); err != nil {
		t.Fatalf("the hash table's own image rejected: %v", err)
	}

	pool = testPool()
	tr, err := core.New(pool, core.Options{ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tw := tr.NewWorker(0)
	for k := uint64(1); k <= 300; k++ {
		if err := tw.Upsert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Freeze()
	pool.Crash()
	if _, err := Recover(pool, opts); err == nil {
		t.Fatal("a tree's image opened as a hash table")
	}
	if _, _, err := core.Open(pool, core.Options{ChunkBytes: 16 << 10}, 1); err != nil {
		t.Fatalf("the tree's own image rejected: %v", err)
	}
}

// TestDeleteInOverflowBucket deletes keys that live in an overflow
// bucket, in flushes that carry no insert, then cycles the buffer so no
// cached tombstone hides the chain: the deletes must reach the overflow
// bucket, before and after a crash.
func TestDeleteInOverflowBucket(t *testing.T) {
	opts := Options{Buckets: 1, ChunkBytes: 16 << 10, DisableGC: true}
	pool := testPool()
	h, w := newTableOn(t, pool, opts)
	for k := uint64(1); k <= 40; k++ {
		if err := w.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(31); k <= 40; k++ {
		if err := w.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for round := uint64(0); round < 4; round++ {
		for k := uint64(1); k <= 10; k++ {
			if err := w.Put(k, k+round); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(w *Worker, when string) {
		for k := uint64(31); k <= 40; k++ {
			if v, ok := w.Get(k); ok {
				t.Fatalf("%s: deleted key %d reads %d", when, k, v)
			}
		}
	}
	check(w, "before the crash")
	h.Freeze()
	pool.Crash()
	h2, err := Recover(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(h2.NewWorker(0), "after recovery")
}

// TestGroupAcrossBuckets drives engine groups (ApplyBatch) through the
// table: the group sorts by bucket, each bucket's ops form one locked
// run, and every op survives a crash.
func TestGroupAcrossBuckets(t *testing.T) {
	opts := Options{Buckets: 8, ChunkBytes: 16 << 10, DisableGC: true}
	pool := testPool()
	h, w := newTableOn(t, pool, opts)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	for g := 0; g < 40; g++ {
		ops := make([]core.BatchOp, 1+rng.Intn(30))
		for i := range ops {
			k := uint64(rng.Intn(300) + 1)
			ops[i] = core.BatchOp{Key: k, Value: uint64(rng.Intn(1<<20) + 1), Delete: rng.Intn(5) == 0}
			if ops[i].Delete {
				delete(ref, k)
			} else {
				ref[k] = ops[i].Value
			}
		}
		if err := w.w.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	check := func(w *Worker, when string) {
		for k := uint64(1); k <= 300; k++ {
			v, ok := w.Get(k)
			if wv, wok := ref[k]; ok != wok || v != wv {
				t.Fatalf("%s: key %d reads %d,%v, want %d,%v", when, k, v, ok, wv, wok)
			}
		}
	}
	check(w, "before the crash")
	h.Freeze()
	pool.Crash()
	h2, err := Recover(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(h2.NewWorker(0), "after recovery")
}

// TestCrashStampTriggerThenRecord is core's test of the same name on
// the bucket directory: a trigger write on socket 1 stamps the home
// bucket at the raw tick that the next record, drawn on socket 0 (the
// clock's skew of socket s is s ticks), also reads. The record must
// still outrank the stamp, or recovery gates the acknowledged update
// out as already flushed.
func TestCrashStampTriggerThenRecord(t *testing.T) {
	pool := testPool()
	opts := Options{Buckets: 1, DisableGC: true}
	h, w0 := newTableOn(t, pool, opts)
	w1 := h.NewWorker(1)
	for _, op := range []struct {
		w    *Worker
		k, v uint64
	}{{w0, 1, 10}, {w0, 2, 20}, {w1, 3, 30}, {w0, 1, 99}} {
		if err := op.w.Put(op.k, op.v); err != nil {
			t.Fatal(err)
		}
	}
	h.Freeze()
	pool.Crash()
	h2, err := Recover(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := h2.NewWorker(0).Get(1); v != 99 {
		t.Fatalf("key 1 recovered as %d, want 99", v)
	}
}

// TestRejectsWhatTheTreeRejects: the table's writes pass the engine's
// one validator, so they fail with the tree's sentinels: key 0 and the
// tombstone as a value are refused, and so is every write after Freeze,
// which leaves the table as it was.
func TestRejectsWhatTheTreeRejects(t *testing.T) {
	h, w := newTable(t, Options{})
	if err := w.Put(3, 1); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		err, want error
	}{
		"Put key 0":    {w.Put(0, 1), core.ErrZeroKey},
		"Delete key 0": {w.Delete(0), core.ErrZeroKey},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: got %v, want %v", name, c.err, c.want)
		}
	}
	if err := w.Put(3, core.Tombstone); err == nil {
		t.Error("Put of the tombstone value accepted")
	}
	h.Freeze()
	for name, err := range map[string]error{"Put": w.Put(3, 4), "Delete": w.Delete(3)} {
		if !errors.Is(err, core.ErrClosed) {
			t.Errorf("%s after Freeze: got %v, want ErrClosed", name, err)
		}
	}
	if v, ok := w.Get(3); !ok || v != 1 {
		t.Fatalf("Get(3) after rejected writes = %d,%v, want 1", v, ok)
	}
}

// TestInspectRefusesTable: the tree inspector reads one whole-device
// tree's leaf list, so a hash table's image, whose superblock roots a
// bucket array, is refused instead of read as leaves.
func TestInspectRefusesTable(t *testing.T) {
	h, w := newTable(t, Options{})
	for i := uint64(1); i <= 500; i++ {
		if err := w.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	h.Freeze()
	if rep, err := core.Inspect(h.Pool()); err == nil {
		t.Fatalf("Inspect read a hash table as a tree: %+v", rep)
	}
}

// TestRecoverRejectsMalformedChains pokes one word of a crashed table's
// bucket chains, then recovers. Recovery follows every chain through
// the engine's one checker (core.Rebuild), so each malformed chain must
// come back as *core.CorruptError within 10 s: never a hang on a cycle,
// a panic on a pointer off the device, or an accepted table.
func TestRecoverRejectsMalformedChains(t *testing.T) {
	opts := Options{Buckets: 2, ChunkBytes: 16 << 10, DisableGC: true}
	type chain struct{ home, over pmem.Addr }
	setMeta := func(th *pmem.Thread, line, next pmem.Addr) {
		var img pmleaf.Image
		img.ReadHeader(th, line)
		th.Store(pmleaf.MetaAddr(line), pmleaf.PackMeta(img.Bitmap(), next))
		th.Persist(pmleaf.MetaAddr(line), pmem.WordSize)
	}
	setTS := func(th *pmem.Thread, line pmem.Addr, ts uint64) {
		th.Store(pmleaf.TSAddr(line), ts)
		th.Persist(pmleaf.TSAddr(line), pmem.WordSize)
	}
	cases := []struct {
		name string
		poke func(th *pmem.Thread, c chain)
	}{
		{"home-self-linked", func(th *pmem.Thread, c chain) { setMeta(th, c.home, c.home) }},
		{"overflow-self-linked", func(th *pmem.Thread, c chain) { setMeta(th, c.over, c.over) }},
		{"overflow-back-to-home", func(th *pmem.Thread, c chain) { setMeta(th, c.over, c.home) }},
		{"off-device", func(th *pmem.Thread, c chain) { setMeta(th, c.home, pmem.MakeAddr(0, 64<<20+pmleaf.Bytes)) }},
		{"misaligned", func(th *pmem.Thread, c chain) { setMeta(th, c.home, c.over.Add(64)) }},
		{"overflow-stamp-beyond-clock", func(th *pmem.Thread, c chain) { setTS(th, c.over, wal.MaxTick+1) }},
		{"home-stamp-beyond-clock", func(th *pmem.Thread, c chain) { setTS(th, c.home, wal.MaxTick+1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := testPool()
			h, w := newTableOn(t, pool, opts)
			for k := uint64(1); k <= 120; k++ {
				if err := w.Put(k, k); err != nil {
					t.Fatal(err)
				}
			}
			h.Freeze()
			pool.Crash()
			th := pool.NewThread(0)
			c := chain{home: h.d.nodes[0].Line()}
			var hdr pmleaf.Image
			hdr.ReadHeader(th, c.home)
			if c.over = hdr.Next(); c.over.IsNil() {
				t.Fatal("home bucket 0 has no overflow bucket to poke")
			}
			tc.poke(th, c)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				_, err := Recover(pool, opts)
				done <- err
			}()
			select {
			case err := <-done:
				if ce := (*core.CorruptError)(nil); !errors.As(err, &ce) {
					t.Fatalf("Recover returned %v, want a *core.CorruptError", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Recover did not return within 10 s")
			}
		})
	}
}

// TestChainRunsInCompareOrder pins the Directory contract recovery's
// route walks: node i of the chain fronts bucket i, and Compare orders
// keys by bucket first, so keys sorted by Compare meet their nodes in
// chain order.
func TestChainRunsInCompareOrder(t *testing.T) {
	h, _ := newTable(t, Options{Buckets: 1 << 6})
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		a, b := rng.Uint64()|1, rng.Uint64()|1
		if got := h.d.Find(nil, a); got != h.d.nodes[h.d.bucket(a)] {
			t.Fatalf("key %#x: Find is not node %d", a, h.d.bucket(a))
		}
		ba, bb := h.d.bucket(a), h.d.bucket(b)
		if c := h.d.Compare(nil, a, b); ba != bb && (c < 0) != (ba < bb) {
			t.Fatalf("Compare(%#x, %#x) = %d, buckets %d, %d", a, b, c, ba, bb)
		}
	}
}

// stageSpy is the table's directory, recording what replay stages into
// which node and counting keys staged into a node Find does not name.
type stageSpy struct {
	*buckets
	mu        sync.Mutex
	staged    map[uint64]uint64
	misrouted int
}

func (s *stageSpy) Stage(w *core.Worker, n *core.Node, st *core.Staged, batch []core.KV) error {
	s.mu.Lock()
	for _, kv := range batch {
		if s.Find(nil, kv.Key) != n {
			s.misrouted++
		}
		s.staged[kv.Key] = kv.Value
	}
	s.mu.Unlock()
	return s.buckets.Stage(w, n, st, batch)
}

// TestRouteMatchesFindHash is core's TestRouteMatchesFind on a hash
// table image with overflow chains: at 1 to 4 recovery threads, every
// record replay stages goes to the node Find names for its key, and
// each thread count replays the same records with the same counts into
// the same contents.
func TestRouteMatchesFindHash(t *testing.T) {
	opts := Options{Buckets: 1 << 6, ChunkBytes: 16 << 10, DisableGC: true}
	var first, firstGot map[uint64]uint64
	var firstSt core.RecoveryStats
	for threads := 1; threads <= 4; threads++ {
		pool := testPool()
		h, err := New(pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := h.NewWorker(0)
		rng := rand.New(rand.NewSource(5))
		for range 6000 {
			if k := uint64(rng.Intn(2000) + 1); rng.Intn(6) == 0 {
				_ = w.Delete(k)
			} else {
				_ = w.Put(k, rng.Uint64()|1)
			}
		}
		h.Freeze()
		pool.Crash()
		spy := &stageSpy{buckets: newBuckets(opts.Buckets), staged: map[uint64]uint64{}}
		tr, st, err := core.OpenIndex(pool, opts.core(), threads, spy)
		if err != nil {
			t.Fatal(err)
		}
		if spy.misrouted != 0 || len(spy.staged) != st.EntriesReplayed || st.EntriesReplayed == 0 || st.EntriesStale == 0 {
			t.Fatalf("%d threads: %d of %d staged records misrouted; stats %+v", threads, spy.misrouted, len(spy.staged), st)
		}
		w2 := (&Table{tr, spy.buckets}).NewWorker(0)
		got := map[uint64]uint64{}
		for k := uint64(1); k <= 2000; k++ {
			if v, ok := w2.Get(k); ok {
				got[k] = v
			}
		}
		s := *st
		s.DiscoverEndNS, s.LinkEndNS, s.RouteEndNS, s.ReplayEndNS, s.VirtualNS = 0, 0, 0, 0, 0
		if threads > 1 && (s != firstSt || !maps.Equal(spy.staged, first) || !maps.Equal(got, firstGot)) {
			t.Fatalf("%d threads: stats %+v, %d staged, %d keys; 1 thread: %+v, %d, %d",
				threads, s, len(spy.staged), len(got), firstSt, len(first), len(firstGot))
		}
		first, firstGot, firstSt = spy.staged, got, s
	}
}
