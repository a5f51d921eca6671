package core

import (
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

func TestScanEdges(t *testing.T) {
	_, w := newTestTree(t, Options{GC: GCOff}, nil)
	out := make([]KV, 10)
	// Empty tree.
	if n := w.Scan(1, 10, out); n != 0 {
		t.Fatalf("empty scan = %d", n)
	}
	for i := uint64(10); i <= 100; i += 10 {
		_ = w.Upsert(i, i)
	}
	// Start beyond every key.
	if n := w.Scan(101, 10, out); n != 0 {
		t.Fatalf("past-end scan = %d", n)
	}
	// Start below every key.
	if n := w.Scan(1, 3, out); n != 3 || out[0].Key != 10 {
		t.Fatalf("below-start scan = %d %v", n, out[:n])
	}
	// max = 0 and undersized buffer.
	if n := w.Scan(1, 0, out); n != 0 {
		t.Fatalf("zero-max scan = %d", n)
	}
	small := make([]KV, 2)
	if n := w.Scan(1, 10, small); n != 2 {
		t.Fatalf("scan must clamp to buffer: %d", n)
	}
	// Exact-key start.
	if n := w.Scan(50, 2, out); n != 2 || out[0].Key != 50 || out[1].Key != 60 {
		t.Fatalf("exact-start scan: %v", out[:2])
	}
}

func TestUpsertIndirectValidation(t *testing.T) {
	_, w := newTestTree(t, Options{GC: GCOff}, nil)
	if err := w.UpsertIndirect(1, 12345); err == nil {
		t.Fatal("untagged word accepted as pointer")
	}
	if err := w.UpsertIndirect(0, 1<<63|256); err == nil {
		t.Fatal("key 0 accepted")
	}
}

func TestLookupAbsentRanges(t *testing.T) {
	_, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(100); i <= 200; i++ {
		_ = w.Upsert(i, i)
	}
	// Below, between (none here), and above the key range.
	for _, k := range []uint64{1, 99, 201, 1 << 50} {
		if _, ok := w.Lookup(k); ok {
			t.Fatalf("phantom key %d", k)
		}
	}
}

func TestDeleteAbsentKeyIsNoop(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	_ = w.Upsert(5, 5)
	if err := w.Delete(999); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Lookup(5); !ok || v != 5 {
		t.Fatal("unrelated key affected")
	}
	// Deleting absent keys repeatedly must not grow leaves unboundedly
	// (tombstones for absent keys are dropped at flush).
	before := tr.LeafCount()
	for i := 0; i < 2000; i++ {
		_ = w.Delete(uint64(1_000_000 + i))
	}
	if grew := tr.LeafCount() - before; grew > 2 {
		t.Fatalf("absent-key deletes grew %d leaves", grew)
	}
}

func TestRepeatedUpsertSameKeyStable(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(1); i <= 10000; i++ {
		_ = w.Upsert(777, i)
	}
	if v, ok := w.Lookup(777); !ok || v != 10000 {
		t.Fatalf("hot key = %d,%v", v, ok)
	}
	// One key must occupy one node: no splits from updates.
	if tr.Counters().Splits != 0 {
		t.Fatalf("updates caused %d splits", tr.Counters().Splits)
	}
	out := make([]KV, 4)
	if n := w.Scan(1, 4, out); n != 1 || out[0].Value != 10000 {
		t.Fatalf("scan sees %d entries (%v)", n, out[:n])
	}
}

func TestMinimalKeyAnchorSurvivesDeletion(t *testing.T) {
	// Deleting a leaf's minimal key leaves a fence so recovery routing
	// stays exact — the invariant behind the fence design.
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	const n = 1000
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(i, i)
	}
	// Delete many keys including likely leaf minima.
	for i := uint64(1); i <= n; i += 3 {
		_ = w.Delete(i)
	}
	// Force buffered tombstones down to leaves.
	for i := uint64(1); i <= n; i++ {
		_ = w.Upsert(n+i, i)
	}
	// Every non-head node's leaf must still physically contain its
	// routing key (live or fence).
	th := tr.Pool().NewThread(0)
	for node := tr.head.next.Load(); node != nil; node = node.next.Load() {
		var img pmleaf.Image
		img.Read(th, node.leaf)
		found := false
		for i := 0; i < LeafSlots; i++ {
			if img.Valid(i) && img.Key(i) == node.lowKey {
				found = true
				break
			}
		}
		// The anchor may still be buffered-only for very fresh splits;
		// those nodes' leaves contain it by construction of splitLeaf.
		if !found {
			t.Fatalf("node lowKey %d missing from its leaf", node.lowKey)
		}
	}
}

func TestFreezeIdempotent(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	_ = w.Upsert(1, 1)
	tr.Freeze()
	tr.Freeze() // second freeze must not hang or panic
	tr.ForceGC()
	tr.WaitGC()
}

func TestInspectAfterCrashRecoverCycle(t *testing.T) {
	tr, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 2000; i++ {
		_ = w.Upsert(i, i)
	}
	tr.Freeze()
	tr.Pool().Crash()
	tr2, _, err := Open(tr.Pool(), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(tr2.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChainBrokenAt != -1 {
		t.Fatalf("order violation after recovery at %d", rep.ChainBrokenAt)
	}
	_ = pmem.NilAddr
}
