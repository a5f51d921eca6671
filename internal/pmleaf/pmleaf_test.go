package pmleaf

import (
	"testing"

	"cclbtree/internal/pmem"
)

func TestMetaPacking(t *testing.T) {
	next := pmem.MakeAddr(1, 0x4200)
	m := PackMeta(0x2aaa, next)
	bm, n := UnpackMeta(m)
	if bm != 0x2aaa || n != next {
		t.Fatalf("roundtrip: %x %v", bm, n)
	}
	bm, n = UnpackMeta(PackMeta(5, pmem.NilAddr))
	if bm != 5 || !n.IsNil() {
		t.Fatalf("nil next roundtrip: %x %v", bm, n)
	}
}

func TestImageSlots(t *testing.T) {
	var li Image
	li.SetKV(3, 77, 88)
	li.SetFP(3, FP(77))
	li.SetMeta(PackMeta(1<<3, pmem.NilAddr))
	if !li.Valid(3) || li.Key(3) != 77 || li.Val(3) != 88 || li.FPAt(3) != FP(77) {
		t.Fatal("slot accessors wrong")
	}
	if li.Count() != 1 {
		t.Fatalf("Count = %d", li.Count())
	}
	if li.FreeSlot() != 0 {
		t.Fatalf("FreeSlot = %d", li.FreeSlot())
	}
	if li.FindKey(77) != 3 || li.FindKey(78) != -1 {
		t.Fatal("FindKey wrong")
	}
}

func TestSortedLive(t *testing.T) {
	var li Image
	keys := []uint64{50, 10, 30}
	var bm uint16
	for i, k := range keys {
		li.SetKV(i, k, k*2)
		bm |= 1 << uint(i)
	}
	li.SetMeta(PackMeta(bm, pmem.NilAddr))
	kvs, slots := li.SortedLive()
	want := []uint64{10, 30, 50}
	wantSlots := []int{1, 2, 0}
	for i := range want {
		if kvs[i].Key != want[i] || slots[i] != wantSlots[i] {
			t.Fatalf("sorted[%d] = %+v slot %d", i, kvs[i], slots[i])
		}
	}
}

func TestFPDistribution(t *testing.T) {
	seen := map[byte]int{}
	for i := uint64(1); i <= 4096; i++ {
		seen[FP(i)]++
	}
	if len(seen) < 200 {
		t.Fatalf("fingerprints poorly distributed: %d distinct", len(seen))
	}
}
