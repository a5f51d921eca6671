package prim

import (
	"fmt"

	"cclbtree/internal/index"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// FPSplit moves the upper half of the full leaf img to a fresh leaf on
// t's socket: the new leaf is written and persisted whole, then
// published through img's header word, whose bitmap and next pointer
// change in one atomic 8 B store. It returns the new leaf's low key and
// address for the caller's directory.
func FPSplit(t *pmem.Thread, alloc *pmalloc.Allocator, img *pmleaf.Image) (uint64, pmem.Addr, error) {
	live, slots := img.SortedLive()
	mid := len(live) / 2
	right, err := alloc.Alloc(t.Socket(), pmleaf.Bytes)
	if err != nil {
		return 0, pmem.NilAddr, fmt.Errorf("leaf split: %w", err)
	}
	rimg := pmleaf.Image{Addr: right}
	var rbm uint16
	for i, kv := range live[mid:] {
		rimg.SetKV(i, kv.Key, kv.Value)
		rimg.SetFP(i, pmleaf.FP(kv.Key))
		rbm |= 1 << uint(i)
	}
	rimg.SetMeta(pmleaf.PackMeta(rbm, img.Next()))
	pmleaf.WriteWhole(t, &rimg)

	keep := img.Bitmap()
	for _, s := range slots[mid:] {
		keep &^= 1 << uint(s)
	}
	img.SetMeta(pmleaf.PackMeta(keep, right))
	t.Store(pmleaf.MetaAddr(img.Addr), img.Meta())
	t.Persist(img.Addr, 8)
	return live[mid].Key, right, nil
}

// FPDelete removes key from the leaf at a by clearing its validity bit:
// one 8 B header store, one flush. An absent key costs the leaf read.
func FPDelete(t *pmem.Thread, a pmem.Addr, key uint64) {
	var img pmleaf.Image
	img.Read(t, a)
	i := img.FindKey(key)
	if i < 0 {
		return
	}
	img.SetMeta(pmleaf.PackMeta(img.Bitmap()&^(1<<uint(i)), img.Next()))
	t.Store(pmleaf.MetaAddr(a), img.Meta())
	t.Persist(a, 8)
}

// FPLookup probes the leaf at a: the 32 B header first, then only the
// slots whose fingerprint matches key's.
func FPLookup(t *pmem.Thread, a pmem.Addr, key uint64) (uint64, bool) {
	var img pmleaf.Image
	img.ReadHeader(t, a)
	bm := img.Bitmap()
	f := pmleaf.FP(key)
	for i := 0; i < pmleaf.Slots; i++ {
		if bm&(1<<uint(i)) == 0 || img.FPAt(i) != f {
			continue
		}
		if t.Load(pmleaf.SlotAddr(a, i)) == key {
			return t.Load(pmleaf.SlotAddr(a, i).Add(8)), true
		}
	}
	return 0, false
}

// FPScan fills out with up to max entries with key ≥ start, walking the
// leaf chain from a and sorting each unsorted leaf in DRAM.
func FPScan(t *pmem.Thread, a pmem.Addr, start uint64, max int, out []index.KV) int {
	if max > len(out) {
		max = len(out)
	}
	count := 0
	for count < max {
		var img pmleaf.Image
		img.Read(t, a)
		live, _ := img.SortedLive()
		t.Advance(int64(len(live)) * 2 * t.CostDRAM())
		for _, kv := range live {
			if kv.Key < start || count >= max {
				continue
			}
			out[count] = kv
			count++
		}
		if a = img.Next(); a.IsNil() {
			break
		}
	}
	return count
}
