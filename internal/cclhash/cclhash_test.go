package cclhash

import (
	"math/rand"
	"sync"
	"testing"

	"cclbtree/internal/pmem"
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
	if opts.Buckets == 0 {
		opts.Buckets = 1 << 10
	}
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = 16 << 10
	}
	h, err := New(testPool(), opts)
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
	_, _, _, overflow := h.Stats()
	if overflow == 0 {
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
	trig, logged, _, _ := h.Stats()
	if trig == 0 {
		t.Fatal("no trigger writes")
	}
	ratio := float64(logged) / float64(n)
	if ratio < 0.55 || ratio > 0.8 {
		t.Fatalf("logged ratio %.2f, want ≈2/3", ratio)
	}
}

func TestRandomOpsAgainstModelHash(t *testing.T) {
	_, w := newTable(t, Options{})
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(12))
	for op := 0; op < 30000; op++ {
		k := uint64(rng.Intn(2000) + 1)
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
	for k, v := range ref {
		if got, ok := w.Get(k); !ok || got != v {
			t.Fatalf("final Get(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestHashGCPreservesData(t *testing.T) {
	h, w := newTable(t, Options{ChunkBytes: 4096, THlog: 0.02})
	const n = 20000
	for i := uint64(1); i <= n; i++ {
		_ = w.Put(i, i)
	}
	h.ForceGC()
	_, _, runs, _ := h.Stats()
	if runs == 0 {
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
	// Collect the live chunk set (stands in for the host's directory).
	h.Close()
	var chunks []pmem.Addr
	for _, wk := range h.workers {
		for e := 0; e < 2; e++ {
			chunks = append(chunks, wk.logs[e].Detach()...)
		}
	}
	pool.Crash()
	h2, err := Recover(pool, opts, h.base, chunks)
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
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(pmem.PowerFailure); !ok {
					panic(r)
				}
				c = true
			}
		}()
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
		return false
	}()
	pool.FailWhen(nil) // disarm before recovery flushes
	if !crashed {
		t.Fatalf("mode %d point %d: fault never fired", mode, point)
	}
	var chunks []pmem.Addr
	for e := 0; e < 2; e++ {
		chunks = append(chunks, w.logs[e].Detach()...)
	}
	pool.Crash()
	h2, err := Recover(pool, opts, h.base, chunks)
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
