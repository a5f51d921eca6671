package core

import (
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// TestCrashHeaderDrainsBeforeData pins §4.2's data-then-metadata order
// of a leaf flush. Power fails at the header persist of a trigger write
// after the header line has reached media — hardware may write a dirty
// line back at any time — but before the worker's own write-backs
// complete. The new header's timestamp gates the WAL records of the
// buffered writes the flush absorbed, so those acknowledged writes
// survive only if their slots were durable before the header was
// written.
func TestCrashHeaderDrainsBeforeData(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	// Two buffer slots: keys 1–3 fill leaf slots 0–2 (slots 0–1 share
	// the header's cacheline), 4 and 5 are buffered and logged, and 6
	// triggers the flush that writes 4–6 into slots 3–5, all on the
	// leaf's second cacheline.
	for k := uint64(1); k <= 5; k++ {
		if err := w.Upsert(k, 10*k); err != nil {
			t.Fatal(err)
		}
	}
	leaf := tr.head.leaf
	hdrLine := leaf.Offset() / pmem.CachelineSize
	pool.FailWhen(func(fp pmem.FaultPoint) bool {
		return fp.Socket == leaf.Socket() && fp.Line == hdrLine
	})
	if !pmem.Survive(func() { _ = w.Upsert(6, 60) }) {
		t.Fatal("trigger write survived the armed header fault")
	}
	tr.Freeze()
	pool.FailWhen(nil)
	// The header line drains; the data lines still wait on the worker's
	// fence and are lost with the power.
	pool.NewThread(leaf.Socket()).Persist(leaf, pmleaf.HeaderBytes)
	pool.Crash()

	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatalf("recovery rejected the image: %v", err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)
	for k := uint64(1); k <= 5; k++ {
		if v, ok := w2.Lookup(k); !ok || v != 10*k {
			t.Fatalf("acknowledged key %d recovered as %d,%v, want %d", k, v, ok, 10*k)
		}
	}
}

// TestCrashSplitLeavesBeforeMeta pins the split's order: the new right
// leaves are durable before the splitting leaf's meta word points at
// them. Power fails at the meta persist of the head leaf's first split,
// after the meta line has reached media; every acknowledged write must
// survive recovery.
func TestCrashSplitLeavesBeforeMeta(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	leaf := tr.head.leaf
	hdrLine := leaf.Offset() / pmem.CachelineSize
	pool.FailWhen(func(fp pmem.FaultPoint) bool {
		return fp.Scope == pmem.ScopeSplit && fp.Socket == leaf.Socket() && fp.Line == hdrLine
	})
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= 4*LeafSlots; k++ {
		if pmem.Survive(func() { err = w.Upsert(k, 10*k) }) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		acked[k] = 10 * k
	}
	if !pool.FaultFired() {
		t.Fatal("the head leaf never split")
	}
	tr.Freeze()
	pool.FailWhen(nil)
	pool.NewThread(leaf.Socket()).Persist(leaf, pmleaf.HeaderBytes)
	pool.Crash()

	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatalf("recovery rejected the image: %v", err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)
	for k, want := range acked {
		if v, ok := w2.Lookup(k); !ok || v != want {
			t.Fatalf("acknowledged key %d recovered as %d,%v, want %d", k, v, ok, want)
		}
	}
}
