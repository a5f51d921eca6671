package core

import (
	"sync"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

func TestNUMALocalLogs(t *testing.T) {
	// Each worker's WAL must live on its own socket (§4.4 Optimization
	// #1): appends from a socket-1 worker must not touch socket 0.
	tr, _ := newTestTree(t, Options{GC: GCOff}, nil)
	w1 := tr.NewWorker(1)
	base := tr.Pool().Stats()
	// Keys land in leaves wherever the tree put them, but the LOG
	// appends are local; measure remote accesses for a buffered insert
	// whose leaf is also on socket 1 (first worker on socket 1 splits
	// leaves locally).
	for i := uint64(1); i <= 100; i++ {
		_ = w1.Upsert(i, i)
	}
	_ = base
	addr, err := w1.logs[tr.epoch.Load()].Append(w1.t, wal.Entry{Key: 999, Value: 1, Timestamp: tr.clock.Now(1)})
	if err != nil {
		t.Fatal(err)
	}
	if addr.Socket() != 1 {
		t.Fatalf("socket-1 worker's log chunk on socket %d", addr.Socket())
	}
}

func TestCrossSocketWorkersShareTree(t *testing.T) {
	tr, _ := newTestTree(t, Options{}, nil)
	var wg sync.WaitGroup
	const per = 3000
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := tr.NewWorker(s)
			base := uint64(s*per + 1)
			for i := uint64(0); i < per; i++ {
				if err := w.Upsert(base+i, base+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	w := tr.NewWorker(0)
	for k := uint64(1); k <= 2*per; k++ {
		if v, ok := w.Lookup(k); !ok || v != k {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
	if tr.Pool().Stats().RemoteAccesses == 0 {
		t.Fatal("cross-socket tree recorded no remote accesses")
	}
}

func TestRecoveryAfterVarKVMixedSockets(t *testing.T) {
	pool := newTestPool(func(c *pmem.Config) { c.DeviceBytes = 64 << 20 })
	tr, err := New(pool, Options{VarKV: true, ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := tr.NewWorker(s)
			for i := 0; i < 500; i++ {
				k := []byte{byte(s), byte(i >> 8), byte(i)}
				if err := putVar(w, k, append(k, 0xee)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	tr.Freeze()
	pool.Crash()
	tr2, _, err := Open(pool, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := tr2.NewWorker(0)
	for s := 0; s < 2; s++ {
		for i := 0; i < 500; i++ {
			k := []byte{byte(s), byte(i >> 8), byte(i)}
			v, ok := w.LookupVar(k)
			if !ok || len(v) != 4 || v[3] != 0xee {
				t.Fatalf("var key %v lost across sockets+crash: %v %v", k, v, ok)
			}
		}
	}
}
