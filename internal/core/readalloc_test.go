package core

import (
	"runtime"
	"testing"
)

// TestLookupZeroAlloc gates the lock-free point-read path at zero
// allocations per op: seqlocked routing, epoch pin, fingerprint probe and
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
// scattered keys, splits and merges included. Nothing is allocated per
// op or per split: the device model, the WAL append and the split's
// working set reuse worker scratch, the inner tree is updated in place,
// and buffer nodes come from the worker's slab — what remains is one
// slab chunk (two objects) per 64 new leaves and one inner node per
// ~20, about 0.01 objects per insert. The churn case (insert, delete
// two thirds, re-insert) is the shape of a serving workload: it adds
// merges, whose route removals must be just as free. Counted from
// MemStats because AllocsPerRun truncates to whole objects.
func TestUpsertAllocCeiling(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, n, ceiling = 2_000, 60_000, 0.03
	for _, churn := range []bool{false, true} {
		tr, w := newTestTree(t, Options{GC: GCOff}, nil)
		insert := func(from, to uint64) {
			for i := from; i < to; i++ {
				if err := w.Upsert(scatteredKey(i), i+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(0, warm) // grow the worker's scratch
		ops := float64(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		insert(warm, warm+n)
		if churn {
			for i := uint64(warm); i < warm+n*2/3; i++ {
				if err := w.Delete(scatteredKey(i)); err != nil {
					t.Fatal(err)
				}
			}
			insert(warm, warm+n*2/3)
			ops += 2 * n * 2 / 3
		}
		runtime.ReadMemStats(&after)
		c := tr.Counters()
		if c.Splits < n/20 || churn && c.Merges < n/40 {
			t.Fatalf("churn=%v: %d splits, %d merges in %.0f ops: the structural paths were not exercised", churn, c.Splits, c.Merges, ops)
		}
		avg := float64(after.Mallocs-before.Mallocs) / ops
		t.Logf("churn=%v: %.4f objects/op (%d splits, %d merges)", churn, avg, c.Splits, c.Merges)
		if avg > ceiling {
			t.Fatalf("churn=%v: writes allocate %.4f objects/op over %.0f scattered ops, want <= %v", churn, avg, ops, ceiling)
		}
	}
}
