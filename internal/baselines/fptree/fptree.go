// Package fptree reproduces FPTree (Oukid et al., SIGMOD '16): inner
// nodes in DRAM, 256 B fingerprinted unsorted leaf nodes in PM. Every
// insert costs two flushes — the KV slot, then the header (bitmap +
// fingerprint) — which keeps CLI-amplification low, but the flushes
// land in whatever random XPLine holds the target leaf, so
// XBI-amplification stays high under random workloads (Fig 3).
//
// It is a prim.Hybrid over the shared fingerprinted leaf; what is its
// own is the out-of-place insert published by a header flip and the
// batched ApplySorted DPTree merges through.
//
// Simplification vs. the original: a coarse reader/writer lock replaces
// HTM sections (virtual-time results are unaffected).
package fptree

import (
	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// Tree is an FPTree instance.
type Tree struct {
	*prim.Hybrid[pmem.Addr]
	dir *memtree.Tree[pmem.Addr] // the Hybrid's directory: low key -> leaf
}

// New creates an empty FPTree.
func New(pool *pmem.Pool) (*Tree, error) {
	hy := prim.NewHybrid[pmem.Addr](pool, "FPTree", 20)
	head, err := hy.NewLine(pool.NewThread(0), pmleaf.Bytes)
	if err != nil {
		return nil, err
	}
	hy.Dir.Put(0, head)
	return &Tree{Hybrid: hy, dir: &hy.Dir}, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle { return prim.Bind(tr, tr.Pool.NewThread(socket)) }

// Upsert writes the pair to a free slot, then publishes it with one
// header write. An update is out of place: the same header flip
// validates the new copy and invalidates the old in one atomic word.
func (tr *Tree) Upsert(t *pmem.Thread, key, value uint64) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	for {
		leaf := tr.Route(t, key)
		var img pmleaf.Image
		img.Read(t, leaf)
		j := img.FreeSlot()
		if j < 0 {
			if err := tr.split(t, &img); err != nil {
				return err
			}
			continue
		}
		t.Store(pmleaf.SlotAddr(leaf, j), key)
		t.Store(pmleaf.SlotAddr(leaf, j).Add(8), value)
		t.Persist(pmleaf.SlotAddr(leaf, j), 16)
		bm := img.Bitmap() | 1<<uint(j)
		if i := img.FindKey(key); i >= 0 {
			bm &^= 1 << uint(i)
		}
		img.SetFP(j, pmleaf.FP(key))
		img.SetMeta(pmleaf.PackMeta(bm, img.Next()))
		pmleaf.WriteHeader(t, &img)
		return nil
	}
}

// ApplySorted applies a key-sorted batch on t with one leaf visit per
// group of consecutive keys: each touched leaf is read once, mutated in
// DRAM, and flushed once (data lines + header). Value 0 deletes. This
// is the bulk path DPTree's background merge uses — the batched leaf
// writes are what let a global-buffer merge amortize (and still scatter
// XPLines, per §3.2's critique). The tree lock is taken here.
func (tr *Tree) ApplySorted(t *pmem.Thread, kvs []index.KV) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	i := 0
	for i < len(kvs) {
		leaf := tr.Route(t, kvs[i].Key)
		var img pmleaf.Image
		img.Read(t, leaf)
		// Upper bound of this leaf's range (the head leaf's low key 0
		// floors every key).
		low, _, _ := tr.dir.FindLE(kvs[i].Key)
		bound, _, haveBound := tr.dirNextLow(low)
		dirtyLo, dirtyHi := pmleaf.Words, -1
		setBitmap := func(bm uint16) { img.SetMeta(pmleaf.PackMeta(bm, img.Next())) }
		full := false
		for ; i < len(kvs) && (!haveBound || kvs[i].Key < bound); i++ {
			kv := kvs[i]
			slot := img.FindKey(kv.Key)
			if slot < 0 && kv.Value != 0 { // an insert claims a free slot
				if slot = img.FreeSlot(); slot < 0 {
					full = true
					break
				}
				img.SetFP(slot, pmleaf.FP(kv.Key))
				setBitmap(img.Bitmap() | 1<<uint(slot))
				dirtyLo = min(dirtyLo, pmleaf.SlotWord(slot))
			}
			switch {
			case slot < 0: // deleting an absent key: nothing
			case kv.Value == 0:
				setBitmap(img.Bitmap() &^ (1 << uint(slot)))
			default:
				img.SetKV(slot, kv.Key, kv.Value)
				wd := pmleaf.SlotWord(slot) + 1
				dirtyLo, dirtyHi = min(dirtyLo, wd), max(dirtyHi, wd)
			}
		}
		// Persist this leaf's group: data then header.
		if dirtyHi >= 0 {
			for wd := dirtyLo; wd <= dirtyHi; wd++ {
				t.Store(leaf.Add(int64(8*wd)), img.Words[wd])
			}
			t.Flush(leaf.Add(int64(8*dirtyLo)), 8*(dirtyHi-dirtyLo+1))
			t.Fence()
		}
		pmleaf.WriteHeader(t, &img)
		if full {
			// Split through the normal path, then continue the batch.
			if err := tr.split(t, &img); err != nil {
				return err
			}
		}
	}
	return nil
}

// split splits the full leaf img into a new directory entry.
func (tr *Tree) split(t *pmem.Thread, img *pmleaf.Image) error {
	sep, right, err := prim.FPSplit(t, tr.Alloc, img)
	if err == nil {
		tr.dir.Put(sep, right)
	}
	return err
}

// dirNextLow returns the directory key after k (the right boundary of
// k's leaf). Caller holds tr.Mu.
func (tr *Tree) dirNextLow(k uint64) (uint64, pmem.Addr, bool) {
	var nk uint64
	var na pmem.Addr
	found := false
	tr.dir.Ascend(k+1, func(key uint64, a pmem.Addr) bool {
		nk, na, found = key, a, true
		return false
	})
	return nk, na, found
}

// Delete clears the key's bitmap bit: one flush.
func (tr *Tree) Delete(t *pmem.Thread, key uint64) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	prim.FPDelete(t, tr.Route(t, key), key)
	return nil
}

// Lookup is the fingerprint probe of the routed leaf.
func (tr *Tree) Lookup(t *pmem.Thread, key uint64) (uint64, bool) {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	return prim.FPLookup(t, tr.Route(t, key), key)
}

// Scan walks leaves in directory order, sorting each in DRAM.
func (tr *Tree) Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	return prim.FPScan(t, tr.Floor(start), start, max, out)
}
