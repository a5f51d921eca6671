package core

import (
	"math/rand"
	"sync"
	"testing"
)

func TestConcurrentDisjointUpserts(t *testing.T) {
	tr, _ := newTestTree(t, Options{}, nil)
	const workers = 8
	const per = 3000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			base := uint64(g*per + 1)
			for i := uint64(0); i < per; i++ {
				if err := w.Upsert(base+i, base+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w := tr.NewWorker(0)
	for k := uint64(1); k <= workers*per; k++ {
		v, ok := w.Lookup(k)
		if !ok || v != k {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
	out := make([]KV, workers*per+1)
	if got := w.Scan(1, len(out), out); got != workers*per {
		t.Fatalf("scan %d of %d", got, workers*per)
	}
}

func TestConcurrentOverlappingUpserts(t *testing.T) {
	// All workers hammer the same small key space; last writer per key
	// is unknowable, but every key must hold SOME value a worker wrote
	// for it, and the structure must stay consistent.
	tr, _ := newTestTree(t, Options{}, nil)
	const workers = 6
	const space = 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
				k := uint64(rng.Intn(space) + 1)
				if err := w.Upsert(k, k*1000+uint64(g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w := tr.NewWorker(0)
	for k := uint64(1); k <= space; k++ {
		v, ok := w.Lookup(k)
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		if v/1000 != k || v%1000 >= workers {
			t.Fatalf("key %d has foreign value %d", k, v)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tr, w0 := newTestTree(t, Options{}, nil)
	const space = 2000
	for k := uint64(1); k <= space; k++ {
		_ = w0.Upsert(k, k)
	}
	stop := make(chan struct{})
	var wgWriters, wg sync.WaitGroup
	// Writers keep updating until told to stop.
	for g := 0; g < 3; g++ {
		wgWriters.Add(1)
		go func(g int) {
			defer wgWriters.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(space) + 1)
				_ = w.Upsert(k, k+uint64(1+i%7)*space)
			}
		}(g)
	}
	// Readers: every observed value must be k or k+j*space (a version
	// some writer produced).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(space) + 1)
				v, ok := w.Lookup(k)
				if !ok {
					t.Errorf("key %d vanished", k)
					return
				}
				if v%space != k%space {
					t.Errorf("key %d read torn value %d", k, v)
					return
				}
			}
		}(g)
	}
	// Scanners: results must be sorted and within the key space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := tr.NewWorker(0)
		out := make([]KV, 100)
		rng := rand.New(rand.NewSource(300))
		for i := 0; i < 500; i++ {
			start := uint64(rng.Intn(space) + 1)
			n := w.Scan(start, 100, out)
			var prev uint64
			for j := 0; j < n; j++ {
				if out[j].Key < start || (j > 0 && out[j].Key <= prev) {
					t.Errorf("scan disorder at %d: %v", j, out[:n])
					return
				}
				prev = out[j].Key
			}
		}
	}()
	wg.Wait() // readers and scanners done
	close(stop)
	wgWriters.Wait()
	w := tr.NewWorker(0)
	for k := uint64(1); k <= space; k++ {
		if _, ok := w.Lookup(k); !ok {
			t.Fatalf("key %d lost after stress", k)
		}
	}
}

func TestConcurrentDeletesAndInserts(t *testing.T) {
	tr, w0 := newTestTree(t, Options{}, nil)
	const space = 1000
	for k := uint64(1); k <= space; k++ {
		_ = w0.Upsert(k, k)
	}
	var wg sync.WaitGroup
	// Each worker owns a residue class: deletes and reinserts its keys.
	const workers = 4
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			for round := 0; round < 6; round++ {
				for k := uint64(g + 1); k <= space; k += workers {
					_ = w.Delete(k)
				}
				for k := uint64(g + 1); k <= space; k += workers {
					_ = w.Upsert(k, k*10)
				}
			}
		}(g)
	}
	wg.Wait()
	w := tr.NewWorker(0)
	for k := uint64(1); k <= space; k++ {
		v, ok := w.Lookup(k)
		if !ok || v != k*10 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentWithGCAndCrash(t *testing.T) {
	tr, _ := newTestTree(t, Options{ChunkBytes: 8192, THlog: 0.05}, nil)
	const workers = 4
	const per = 4000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := tr.NewWorker(g % tr.Pool().Sockets())
			base := uint64(g*per + 1)
			for i := uint64(0); i < per; i++ {
				_ = w.Upsert(base+i, base+i+7)
			}
		}(g)
	}
	wg.Wait()
	if tr.Counters().GCRuns == 0 {
		t.Fatal("GC never ran under concurrent load")
	}
	tr.Freeze()
	tr.Pool().Crash()
	tr2, _, err := Open(tr.Pool(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := tr2.NewWorker(0)
	for k := uint64(1); k <= workers*per; k++ {
		v, ok := w.Lookup(k)
		if !ok || v != k+7 {
			t.Fatalf("key %d after concurrent GC + crash: %d,%v", k, v, ok)
		}
	}
}

// TestCrashMidGC starts a GC round of each policy and freezes and
// crashes while it is likely in flight. The naive round runs under the
// stop-the-world lock, so the strict lock-order and scope checks see
// its registration and its scope here too.
func TestCrashMidGC(t *testing.T) {
	for _, policy := range []GCPolicy{GCLocalityAware, GCNaive} {
		t.Run(policy.String(), func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				tr, w := newTestTree(t, Options{ChunkBytes: 4096, GC: GCOff}, nil)
				const n = 5000
				for i := uint64(1); i <= n; i++ {
					_ = w.Upsert(i, i)
				}
				tr.opts.GC = policy
				tr.startGC() // async; freeze races with the scan
				tr.Freeze()
				tr.Pool().Crash()
				tr2, _, err := Open(tr.Pool(), Options{}, 2)
				if err != nil {
					t.Fatal(err)
				}
				w2 := tr2.NewWorker(0)
				for i := uint64(1); i <= n; i++ {
					v, ok := w2.Lookup(i)
					if !ok || v != i {
						t.Fatalf("trial %d: key %d after mid-GC crash: %d,%v", trial, i, v, ok)
					}
				}
			}
		})
	}
}
