// Package fptree reproduces FPTree (Oukid et al., SIGMOD '16): inner
// nodes in DRAM, 256 B fingerprinted unsorted leaf nodes in PM. Every
// insert costs two flushes — the KV slot, then the header (bitmap +
// fingerprint) — which keeps CLI-amplification low, but the flushes
// land in whatever random XPLine holds the target leaf, so
// XBI-amplification stays high under random workloads (Fig 3).
//
// Simplification vs. the original: a coarse reader/writer lock replaces
// HTM sections (virtual-time results are unaffected).
package fptree

import (
	"fmt"
	"sync"

	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// Tree is an FPTree instance.
type Tree struct {
	pool  *pmem.Pool
	alloc *pmalloc.Allocator

	mu  sync.RWMutex
	dir memtree.Tree[pmem.Addr] // low key -> leaf address
}

// New creates an empty FPTree.
func New(pool *pmem.Pool) (*Tree, error) {
	tr := &Tree{pool: pool, alloc: pmalloc.New(pool)}
	t := pool.NewThread(0)
	head, err := tr.alloc.Alloc(0, pmleaf.Bytes)
	if err != nil {
		return nil, fmt.Errorf("fptree: %w", err)
	}
	var img pmleaf.Image
	img.Addr = head
	pmleaf.WriteWhole(t, &img)
	tr.dir.Put(0, head)
	return tr, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) { return New(pool) }
}

// Name implements index.Index.
func (tr *Tree) Name() string { return "FPTree" }

// Allocator exposes the PM allocator (DPTree shares it for its logs).
func (tr *Tree) Allocator() *pmalloc.Allocator { return tr.alloc }

// Close implements index.Index.
func (tr *Tree) Close() {}

// MemoryUsage implements index.Index: DRAM inner entries + PM leaves.
func (tr *Tree) MemoryUsage() (int64, int64) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return int64(tr.dir.Len()) * 20, tr.alloc.TotalInUseBytes()
}

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	return &handle{tr: tr, t: tr.pool.NewThread(socket)}
}

// NewHandleWithThread creates a handle charging an existing thread's
// clock (DPTree drives its base tree through the same thread so merge
// and lookup costs land on the caller).
func (tr *Tree) NewHandleWithThread(t *pmem.Thread) index.Handle {
	return &handle{tr: tr, t: t}
}

type handle struct {
	tr *Tree
	t  *pmem.Thread
}

func (h *handle) Thread() *pmem.Thread { return h.t }

// leafFor routes a key (callers hold tr.mu).
func (tr *Tree) leafFor(t *pmem.Thread, key uint64) pmem.Addr {
	t.Advance(int64(tr.dir.Depth()) * 6 * t.CostDRAM())
	_, a, ok := tr.dir.FindLE(key)
	if !ok {
		_, a, _ = tr.dir.Min()
	}
	return a
}

// Upsert implements index.Handle.
func (h *handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("fptree: key 0 is reserved")
	}
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	return h.insert(key, value)
}

func (h *handle) insert(key, value uint64) error {
	leaf := h.tr.leafFor(h.t, key)
	var img pmleaf.Image
	img.Read(h.t, leaf)

	if i := img.FindKey(key); i >= 0 {
		// Out-of-place update: new slot, then header flip validates
		// the new copy and invalidates the old in one atomic word.
		j := img.FreeSlot()
		if j < 0 {
			if err := h.split(&img); err != nil {
				return err
			}
			return h.insert(key, value)
		}
		h.t.Store(pmleaf.SlotAddr(leaf, j), key)
		h.t.Store(pmleaf.SlotAddr(leaf, j).Add(8), value)
		h.t.Persist(pmleaf.SlotAddr(leaf, j), 16)
		img.SetKV(j, key, value)
		img.SetFP(j, pmleaf.FP(key))
		bm := img.Bitmap()&^(1<<uint(i)) | 1<<uint(j)
		img.SetMeta(pmleaf.PackMeta(bm, img.Next()))
		pmleaf.WriteHeader(h.t, &img)
		return nil
	}
	j := img.FreeSlot()
	if j < 0 {
		if err := h.split(&img); err != nil {
			return err
		}
		return h.insert(key, value)
	}
	h.t.Store(pmleaf.SlotAddr(leaf, j), key)
	h.t.Store(pmleaf.SlotAddr(leaf, j).Add(8), value)
	h.t.Persist(pmleaf.SlotAddr(leaf, j), 16)
	img.SetFP(j, pmleaf.FP(key))
	img.SetMeta(pmleaf.PackMeta(img.Bitmap()|1<<uint(j), img.Next()))
	pmleaf.WriteHeader(h.t, &img)
	return nil
}

// split moves the upper half of a full leaf to a new leaf: write and
// persist the new leaf, then publish atomically through the old leaf's
// header word.
func (h *handle) split(img *pmleaf.Image) error {
	live, slots := img.SortedLive()
	mid := len(live) / 2
	splitKey := live[mid].Key

	newLeaf, err := h.tr.alloc.Alloc(h.t.Socket(), pmleaf.Bytes)
	if err != nil {
		return fmt.Errorf("fptree: %w", err)
	}
	var rimg pmleaf.Image
	rimg.Addr = newLeaf
	var rbm uint16
	for i, kv := range live[mid:] {
		rimg.SetKV(i, kv.Key, kv.Value)
		rimg.SetFP(i, pmleaf.FP(kv.Key))
		rbm |= 1 << uint(i)
	}
	rimg.SetMeta(pmleaf.PackMeta(rbm, img.Next()))
	pmleaf.WriteWhole(h.t, &rimg)

	keep := img.Bitmap()
	for _, s := range slots[mid:] {
		keep &^= 1 << uint(s)
	}
	img.SetMeta(pmleaf.PackMeta(keep, newLeaf))
	h.t.Store(pmleaf.MetaAddr(img.Addr), img.Meta())
	h.t.Persist(img.Addr, 8)

	h.tr.dir.Put(splitKey, newLeaf)
	return nil
}

// ApplySorted applies a key-sorted batch with one leaf visit per
// group of consecutive keys: each touched leaf is read once, mutated in
// DRAM, and flushed once (data lines + header). Value 0 deletes. This
// is the bulk path DPTree's background merge uses — the batched leaf
// writes are what let a global-buffer merge amortize (and still scatter
// XPLines, per §3.2's critique). The caller must hold no handle state;
// the tree lock is taken here.
func (h *handle) ApplySorted(kvs []index.KV) error {
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	i := 0
	for i < len(kvs) {
		leaf := h.tr.leafFor(h.t, kvs[i].Key)
		var img pmleaf.Image
		img.Read(h.t, leaf)
		// Upper bound of this leaf's range.
		var bound uint64
		haveBound := false
		if k, _, ok := h.tr.dir.FindLE(kvs[i].Key); ok {
			if nk, _, ok2 := h.tr.dirNextLow(k); ok2 {
				bound, haveBound = nk, true
			}
		}
		bm := img.Bitmap()
		dirtyLo, dirtyHi := pmleaf.Words, -1
		mark := func(wd int) {
			if wd < dirtyLo {
				dirtyLo = wd
			}
			if wd > dirtyHi {
				dirtyHi = wd
			}
		}
		full := false
		for i < len(kvs) && (!haveBound || kvs[i].Key < bound) {
			kv := kvs[i]
			slot := -1
			f := pmleaf.FP(kv.Key)
			for j := 0; j < pmleaf.Slots; j++ {
				if bm&(1<<uint(j)) != 0 && img.FPAt(j) == f && img.Key(j) == kv.Key {
					slot = j
					break
				}
			}
			switch {
			case slot >= 0 && kv.Value == 0:
				bm &^= 1 << uint(slot)
			case slot >= 0:
				img.SetKV(slot, kv.Key, kv.Value)
				mark(pmleaf.SlotWord(slot) + 1)
			case kv.Value == 0:
				// deleting an absent key: nothing
			default:
				free := -1
				for j := 0; j < pmleaf.Slots; j++ {
					if bm&(1<<uint(j)) == 0 {
						free = j
						break
					}
				}
				if free < 0 {
					full = true
				} else {
					img.SetKV(free, kv.Key, kv.Value)
					img.SetFP(free, f)
					bm |= 1 << uint(free)
					mark(pmleaf.SlotWord(free))
					mark(pmleaf.SlotWord(free) + 1)
				}
			}
			if full {
				break
			}
			i++
		}
		// Persist this leaf's group: data then header.
		if dirtyHi >= 0 {
			for wd := dirtyLo; wd <= dirtyHi; wd++ {
				h.t.Store(leaf.Add(int64(8*wd)), img.Words[wd])
			}
			h.t.Flush(leaf.Add(int64(8*dirtyLo)), 8*(dirtyHi-dirtyLo+1))
			h.t.Fence()
		}
		img.SetMeta(pmleaf.PackMeta(bm, img.Next()))
		pmleaf.WriteHeader(h.t, &img)
		if full {
			// Split through the normal path, then continue the batch.
			img.SetMeta(pmleaf.PackMeta(bm, img.Next()))
			if err := h.split(&img); err != nil {
				return err
			}
		}
	}
	return nil
}

// dirNextLow returns the directory key after k (the right boundary of
// k's leaf). Caller holds tr.mu.
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

// Delete implements index.Handle: clear the bitmap bit, one flush.
func (h *handle) Delete(key uint64) error {
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	leaf := h.tr.leafFor(h.t, key)
	var img pmleaf.Image
	img.Read(h.t, leaf)
	i := img.FindKey(key)
	if i < 0 {
		return nil
	}
	img.SetMeta(pmleaf.PackMeta(img.Bitmap()&^(1<<uint(i)), img.Next()))
	h.t.Store(pmleaf.MetaAddr(leaf), img.Meta())
	h.t.Persist(leaf, 8)
	return nil
}

// Lookup implements index.Handle.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	leaf := h.tr.leafFor(h.t, key)
	var img pmleaf.Image
	img.ReadHeader(h.t, leaf)
	bm := img.Bitmap()
	f := pmleaf.FP(key)
	for i := 0; i < pmleaf.Slots; i++ {
		if bm&(1<<uint(i)) == 0 || img.FPAt(i) != f {
			continue
		}
		k := h.t.Load(pmleaf.SlotAddr(leaf, i))
		if k != key {
			continue
		}
		return h.t.Load(pmleaf.SlotAddr(leaf, i).Add(8)), true
	}
	return 0, false
}

// Scan implements index.Handle: walk leaves in directory order, sort
// each unsorted leaf in DRAM.
func (h *handle) Scan(start uint64, max int, out []index.KV) int {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	if max > len(out) {
		max = len(out)
	}
	low, leaf, ok := h.tr.dir.FindLE(start)
	if !ok {
		low, leaf, _ = h.tr.dir.Min()
	}
	count := 0
	for count < max {
		var img pmleaf.Image
		img.Read(h.t, leaf)
		live, _ := img.SortedLive()
		h.t.Advance(int64(len(live)) * 2 * h.t.CostDRAM())
		for _, kv := range live {
			if kv.Key < start || count >= max {
				continue
			}
			out[count] = kv
			count++
		}
		next := img.Next()
		if next.IsNil() {
			break
		}
		leaf = next
		_ = low
	}
	return count
}
