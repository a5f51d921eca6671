package core

import (
	"runtime"
	"testing"
)

// TestLookupZeroAlloc gates the lock-free point-read path at zero
// allocations per op: RCU routing, epoch pin, fingerprint probe and
// leaf search must all stay on the stack.
func TestLookupZeroAlloc(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 2048; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var k uint64 = 1
	avg := testing.AllocsPerRun(3000, func() {
		w.Lookup(k)
		k = k%2048 + 1
	})
	if avg != 0 {
		t.Fatalf("Lookup allocates %.2f objects/op, want 0", avg)
	}
	// Misses are on the same path.
	avg = testing.AllocsPerRun(1000, func() { w.Lookup(1 << 40) })
	if avg != 0 {
		t.Fatalf("missing-key Lookup allocates %.2f objects/op, want 0", avg)
	}
}

// TestScanZeroAllocSteadyState gates Scan's per-node collection: after
// the worker's reusable candidate/entry buffers warm up, a scan
// performs no per-call allocation.
func TestScanZeroAllocSteadyState(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 2048; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]KV, 64)
	w.Scan(1, 64, out) // warm the scratch buffers
	var start uint64 = 1
	avg := testing.AllocsPerRun(1000, func() {
		w.Scan(start, 64, out)
		start = start%1900 + 1
	})
	if avg != 0 {
		t.Fatalf("steady-state Scan allocates %.2f objects/op, want 0", avg)
	}
}

// TestUpsertAllocCeiling bounds the write path's allocations on
// scattered keys, splits included. What remains is what outlives the
// op: each split's buffer nodes and the inner tree's copy-on-write
// path (about 1.1 objects per insert at this fanout); the device
// model, the WAL append and the split's working set allocate nothing.
// Counted from MemStats because AllocsPerRun truncates to whole
// objects.
func TestUpsertAllocCeiling(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	key := func(i uint64) uint64 { return i*0x9e3779b97f4a7c15&MaxValue | 1 }
	insert := func(from, to uint64) {
		for i := from; i < to; i++ {
			if err := w.Upsert(key(i), i+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	const warm, n = 2_000, 60_000
	insert(0, warm) // grow the worker's scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	insert(warm, warm+n)
	runtime.ReadMemStats(&after)
	if s := tr.Counters().Splits; s < n/20 {
		t.Fatalf("only %d splits in %d inserts: the split path was not exercised", s, n)
	}
	if avg := float64(after.Mallocs-before.Mallocs) / n; avg > 1.5 {
		t.Fatalf("Upsert allocates %.2f objects/op over %d scattered inserts, want <= 1.5", avg, n)
	} else {
		t.Logf("Upsert: %.2f objects/op", avg)
	}
}
