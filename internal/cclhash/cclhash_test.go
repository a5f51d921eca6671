package cclhash

import (
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

func testPool() *pmem.Pool {
	return pmem.NewPool(pmem.Config{
		Sockets:        2,
		DIMMsPerSocket: 2,
		DeviceBytes:    64 << 20,
		XPBufferLines:  16,
		CacheLines:     1 << 13,
		StrictPersist:  true,
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

// TestRecoverAdoptsImageNbatch is core's TestOpenAdoptsImageNbatch on
// a table: one created at each Nbatch (-1 is Base, 0 slots) recovers
// with it under Options{}, and an empty bucket of the recovered table
// then buffers exactly that many new keys before its first trigger
// write.
func TestRecoverAdoptsImageNbatch(t *testing.T) {
	for _, c := range []struct{ created, want int }{{-1, 0}, {2, 2}, {4, 4}, {8, 8}} {
		pool := pmem.NewPool(pmem.Config{Sockets: 1, DIMMsPerSocket: 1, DeviceBytes: 1 << 20, StrictPersist: true})
		opts := Options{Buckets: 1 << 4, ChunkBytes: 16 << 10, DisableGC: true}
		created := opts
		created.Nbatch = c.created
		h, err := New(pool, created)
		if err != nil {
			t.Fatal(err)
		}
		h.Freeze()
		pool.Crash()
		if h, err = Recover(pool, opts); err != nil {
			t.Fatal(err)
		}
		if got := h.Options().Nbatch; got != c.want {
			t.Fatalf("created at %d: recovered with Nbatch %d, want %d", c.created, got, c.want)
		}
		w := h.NewWorker(0)
		var keys []uint64
		for k := uint64(1); len(keys) <= c.want; k++ {
			if h.d.bucket(k) == 0 {
				keys = append(keys, k)
			}
		}
		for i, k := range keys {
			before := h.Counters().TriggerWrites
			if err := w.Put(k, k); err != nil {
				t.Fatal(err)
			}
			if trig := h.Counters().TriggerWrites != before; trig != (i == c.want) {
				t.Fatalf("created at %d: put %d into an empty bucket made a trigger write: %v", c.created, i+1, trig)
			}
		}
		for _, k := range keys {
			if v, ok := w.Get(k); !ok || v != k {
				t.Fatalf("created at %d: key %d reads %d,%v", c.created, k, v, ok)
			}
		}
		h.Freeze()
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

// stageSpy is the table's directory, recording what is staged into
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
// table image with overflow chains, reopened with the Nbatch it was
// written with, so that replay puts every surviving record into its
// bucket's buffer slots. A naive GC round then flushes every slot
// through the directory's Stage: at 1 to 4 recovery threads, every
// record replay put into a bucket's slots belongs to the bucket Find
// names, and every replayed record is in one; the table reads every
// acknowledged write, and each thread count replays the same records
// with the same counts into the same contents.
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
		want := map[uint64]uint64{}
		for range 6000 {
			if k := uint64(rng.Intn(2000) + 1); rng.Intn(6) == 0 {
				if err := w.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
			} else {
				v := rng.Uint64() | 1
				if err := w.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
		}
		h.Freeze()
		pool.Crash()
		spy := &stageSpy{buckets: newBuckets(opts.Buckets), staged: map[uint64]uint64{}}
		co := opts.core()
		co.GC = core.GCNaive
		tr, st, err := core.OpenIndex(pool, co, threads, spy)
		if err != nil {
			t.Fatal(err)
		}
		if len(spy.staged) != 0 {
			t.Fatalf("%d threads: replay staged %d records", threads, len(spy.staged))
		}
		tr.ForceGC()
		if spy.misrouted != 0 || len(spy.staged) != st.EntriesReplayed || st.EntriesStale == 0 {
			t.Fatalf("%d threads: %d of %d slot records misrouted; stats %+v", threads, spy.misrouted, len(spy.staged), st)
		}
		w2 := (&Table{tr, spy.buckets}).NewWorker(0)
		got := map[uint64]uint64{}
		for k := uint64(1); k <= 2000; k++ {
			if v, ok := w2.Get(k); ok {
				got[k] = v
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%d threads: recovered %d keys, %d acknowledged", threads, len(got), len(want))
		}
		s := *st
		s.DiscoverEndNS, s.LinkEndNS, s.RouteEndNS, s.ReplayEndNS, s.VirtualNS = 0, 0, 0, 0, 0
		if threads > 1 && (s != firstSt || !maps.Equal(spy.staged, first) || !maps.Equal(got, firstGot)) {
			t.Fatalf("%d threads: stats %+v, %d in slots, %d keys; 1 thread: %+v, %d, %d",
				threads, s, len(spy.staged), len(got), firstSt, len(first), len(firstGot))
		}
		first, firstGot, firstSt = spy.staged, got, s
		tr.Freeze()
	}
}
