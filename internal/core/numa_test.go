package core

import (
	"slices"
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

// placementImage loads keys on a tree homed on socket 0 through one
// worker per socket in sockets, with GC off so part of it stays in the
// log, crashes, and returns the saved image and the contents written.
func placementImage(t *testing.T, sockets ...int) (crashImage, map[uint64]uint64) {
	t.Helper()
	pool := newTestPool(nil)
	tr, err := New(pool, Options{GC: GCOff, ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for i, s := range sockets {
		w := tr.NewWorker(s)
		for k := uint64(i + 1); k <= 6000; k += uint64(len(sockets)) {
			v := k*7 + uint64(s)
			if err := w.Upsert(k*0x9E3779B97F4A7C15>>8|1, v); err != nil {
				t.Fatal(err)
			}
			want[k*0x9E3779B97F4A7C15>>8|1] = v
		}
	}
	tr.Freeze()
	pool.Crash()
	return saveImage(t, pool), want
}

// TestOneSocketRecoveryIsLocal recovers an image whose every line and
// log chunk is on socket 0 with two threads: seated by where the PM
// work is, both run on socket 0, and recovery makes no remote access.
func TestOneSocketRecoveryIsLocal(t *testing.T) {
	img, _ := placementImage(t, 0)
	pool := img.loadInto(t, newTestPool(nil))
	before := pool.Stats().RemoteAccesses
	if _, _, err := Open(pool, Options{}, 2); err != nil {
		t.Fatal(err)
	}
	if n := pool.Stats().RemoteAccesses - before; n != 0 {
		t.Fatalf("recovering a one-socket image made %d remote PM accesses", n)
	}
}

// TestTwoSocketRecoveryMatchesSerial recovers an image written from
// both sockets with 1 to 4 threads: however the phases seat their
// threads across the sockets, every count recovers the same contents.
func TestTwoSocketRecoveryMatchesSerial(t *testing.T) {
	img, want := placementImage(t, 0, 1)
	for threads := 1; threads <= 4; threads++ {
		tr, st, err := Open(img.loadInto(t, newTestPool(nil)), Options{}, threads)
		if err != nil {
			t.Fatal(err)
		}
		if st.EntriesReplayed == 0 {
			t.Fatalf("%d threads: nothing replayed; the image should leave records in the log", threads)
		}
		w := tr.NewWorker(0)
		out := make([]KV, len(want)+1)
		if n := w.Scan(1, len(out), out); n != len(want) {
			t.Fatalf("%d threads: recovered %d keys, want %d", threads, n, len(want))
		}
		for _, kv := range out[:len(want)] {
			if want[kv.Key] != kv.Value {
				t.Fatalf("%d threads: key %#x reads %d, want %d", threads, kv.Key, kv.Value, want[kv.Key])
			}
		}
	}
}

// TestRecoveryPhaseEnds checks the phase ends RecoveryStats reports on
// the restart timeline: discovery beside the log scan, the link pass,
// routing and replay. Each phase starts where the one before ended, so
// the ends never decrease, and the last one is VirtualNS.
func TestRecoveryPhaseEnds(t *testing.T) {
	img, _ := placementImage(t, 0, 1)
	for _, threads := range []int{1, 3} {
		_, st, err := Open(img.loadInto(t, newTestPool(nil)), Options{}, threads)
		if err != nil {
			t.Fatal(err)
		}
		ends := []int64{st.DiscoverEndNS, st.LinkEndNS, st.RouteEndNS, st.ReplayEndNS}
		t.Logf("%d threads: phase ends %v ns", threads, ends)
		if ends[0] <= 0 {
			t.Fatalf("%d threads: discovery ends at %d", threads, ends[0])
		}
		if !slices.IsSorted(ends) || ends[3] != st.VirtualNS {
			t.Fatalf("%d threads: phase ends %v, VirtualNS %d", threads, ends, st.VirtualNS)
		}
	}
}
