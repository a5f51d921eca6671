package core

import (
	"bytes"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

func TestInspectHealthyTree(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(1); i <= 3000; i++ {
		_ = w.Upsert(i, i)
	}
	for i := uint64(1); i <= 3000; i += 5 {
		_ = w.Delete(i)
	}
	rep, err := Inspect(tr.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaves < 100 {
		t.Fatalf("leaves = %d", rep.Leaves)
	}
	if rep.ChainBrokenAt != -1 {
		t.Fatalf("healthy tree reported order violation at %d", rep.ChainBrokenAt)
	}
	if rep.LogEntries == 0 {
		t.Fatal("no WAL entries visible")
	}
	if rep.FenceEntries == 0 {
		t.Fatal("deletes should leave fence tombstones")
	}
	// Live + buffered must cover the survivors (buffered entries are
	// not in leaves yet, so live ≤ survivors).
	if rep.LiveEntries > 3000 {
		t.Fatalf("live entries %d exceed inserted keys", rep.LiveEntries)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatal("report rendered empty")
	}
}

func TestInspectDetectsOrderViolation(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(1); i <= 1000; i++ {
		_ = w.Upsert(i, i)
	}
	// Corrupt a leaf deliberately: write a huge key into the second
	// leaf's first valid slot so it overlaps every successor.
	th := tr.Pool().NewThread(0)
	second := tr.head.next.Load()
	if second == nil {
		t.Skip("tree too small")
	}
	var img pmleaf.Image
	img.Read(th, second.leaf)
	for i := 0; i < LeafSlots; i++ {
		if img.Valid(i) {
			th.Store(pmleaf.SlotAddr(second.leaf, i), 1<<60)
			th.Persist(pmleaf.SlotAddr(second.leaf, i), 8)
			break
		}
	}
	rep, err := Inspect(tr.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChainBrokenAt < 0 {
		t.Fatal("deliberate corruption not detected")
	}
}

func TestInspectRejectsEmptyPool(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 1 << 20, StrictPersist: true})
	if _, err := Inspect(pool); err == nil {
		t.Fatal("empty pool accepted")
	}
}
