// Package pactree is a stand-in for PACTree (Kim et al., SOSP '21)
// faithful to the properties the paper's comparison exercises: a
// volatile search layer over persistent leaf nodes that keep their
// entries sorted (shift-on-insert, several flushes landing in one
// random XPLine), with leaves allocated from the operating thread's
// local socket pool (PACTree's NUMA-aware packed pools).
//
// The original's asynchronous structural-refinement pipeline and
// trie-shaped search layer are not reproduced — they affect tail
// latency, not the write-amplification and throughput behaviours the
// experiments here measure. Deletes are implemented (the original's
// public code could not run them, §5.1), but the harness mirrors the
// paper and skips PACTree in delete workloads.
package pactree

import (
	"fmt"
	"sync"

	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
)

// Leaf layout: word0 = count, word1 = next, words 2..31 = 15 sorted
// pairs. 256 B, one XPLine.
const (
	leafBytes = 256
	leafWords = leafBytes / pmem.WordSize
	maxPairs  = 15
	cntWord   = 0
	nextWord  = 1
	pairBase  = 2
)

// Tree is a PACTree-style index.
type Tree struct {
	pool  *pmem.Pool
	alloc *pmalloc.Allocator

	mu  sync.RWMutex
	dir memtree.Tree[pmem.Addr]
}

// New creates an empty tree.
func New(pool *pmem.Pool) (*Tree, error) {
	tr := &Tree{pool: pool, alloc: pmalloc.New(pool)}
	t := pool.NewThread(0)
	head, err := tr.alloc.Alloc(0, leafBytes)
	if err != nil {
		return nil, fmt.Errorf("pactree: %w", err)
	}
	t.WriteRange(head, make([]uint64, leafWords))
	t.Persist(head, leafBytes)
	tr.dir.Put(0, head)
	return tr, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) { return New(pool) }
}

// Name implements index.Index.
func (tr *Tree) Name() string { return "PACTree" }

// Close implements index.Index.
func (tr *Tree) Close() {}

// MemoryUsage implements index.Index.
func (tr *Tree) MemoryUsage() (int64, int64) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return int64(tr.dir.Len()) * 20, tr.alloc.TotalInUseBytes()
}

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	return &handle{tr: tr, t: tr.pool.NewThread(socket)}
}

type handle struct {
	tr *Tree
	t  *pmem.Thread
}

func (h *handle) Thread() *pmem.Thread { return h.t }

type leafImg struct {
	addr  pmem.Addr
	words [leafWords]uint64
}

func (li *leafImg) read(t *pmem.Thread, a pmem.Addr) {
	li.addr = a
	t.ReadRange(a, li.words[:])
}

func (li *leafImg) count() int       { return int(li.words[cntWord]) }
func (li *leafImg) next() pmem.Addr  { return pmem.Addr(li.words[nextWord]) }
func (li *leafImg) key(i int) uint64 { return li.words[pairBase+2*i] }
func (li *leafImg) val(i int) uint64 { return li.words[pairBase+2*i+1] }

func (li *leafImg) lowerBound(k uint64) int {
	lo, hi := 0, li.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if li.key(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (tr *Tree) leafFor(t *pmem.Thread, key uint64) pmem.Addr {
	t.Advance(int64(tr.dir.Depth()) * 6 * t.CostDRAM())
	_, a, ok := tr.dir.FindLE(key)
	if !ok {
		_, a, _ = tr.dir.Min()
	}
	return a
}

// Upsert implements index.Handle: sorted insert with shifting.
func (h *handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("pactree: key 0 is reserved")
	}
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	return h.insert(key, value)
}

func (h *handle) insert(key, value uint64) error {
	var img leafImg
	img.read(h.t, h.tr.leafFor(h.t, key))
	i := img.lowerBound(key)
	if i < img.count() && img.key(i) == key {
		a := img.addr.Add(int64(8 * (pairBase + 2*i + 1)))
		h.t.Store(a, value)
		h.t.Persist(a, 8)
		return nil
	}
	if img.count() == maxPairs {
		if err := h.split(&img); err != nil {
			return err
		}
		return h.insert(key, value)
	}
	// Shift right, write new pair, flush touched lines, bump count.
	cnt := img.count()
	for j := cnt - 1; j >= i; j-- {
		h.t.Store(img.addr.Add(int64(8*(pairBase+2*j+2))), img.key(j))
		h.t.Store(img.addr.Add(int64(8*(pairBase+2*j+3))), img.val(j))
		img.words[pairBase+2*j+2] = img.key(j)
		img.words[pairBase+2*j+3] = img.val(j)
	}
	h.t.Store(img.addr.Add(int64(8*(pairBase+2*i))), key)
	h.t.Store(img.addr.Add(int64(8*(pairBase+2*i+1))), value)
	h.t.Flush(img.addr.Add(int64(8*(pairBase+2*i))), 8*2*(cnt-i+1))
	h.t.Fence()
	h.t.Store(img.addr.Add(8*cntWord), uint64(cnt+1))
	h.t.Persist(img.addr, 8)
	return nil
}

func (h *handle) split(img *leafImg) error {
	// New leaf on the local socket (PACTree's per-NUMA pools).
	newLeaf, err := h.tr.alloc.Alloc(h.t.Socket(), leafBytes)
	if err != nil {
		return fmt.Errorf("pactree: %w", err)
	}
	mid := maxPairs / 2
	splitKey := img.key(mid)
	var rimg [leafWords]uint64
	rc := maxPairs - mid
	rimg[cntWord] = uint64(rc)
	rimg[nextWord] = uint64(img.next())
	for i := 0; i < rc; i++ {
		rimg[pairBase+2*i] = img.key(mid + i)
		rimg[pairBase+2*i+1] = img.val(mid + i)
	}
	h.t.WriteRange(newLeaf, rimg[:])
	h.t.Persist(newLeaf, leafBytes)
	h.t.Store(img.addr.Add(8*nextWord), uint64(newLeaf))
	h.t.Store(img.addr.Add(8*cntWord), uint64(mid))
	img.words[cntWord] = uint64(mid)
	img.words[nextWord] = uint64(newLeaf)
	h.t.Persist(img.addr, 16)
	h.tr.dir.Put(splitKey, newLeaf)
	return nil
}

// Delete implements index.Handle: shift-left removal.
func (h *handle) Delete(key uint64) error {
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	var img leafImg
	img.read(h.t, h.tr.leafFor(h.t, key))
	i := img.lowerBound(key)
	if i >= img.count() || img.key(i) != key {
		return nil
	}
	cnt := img.count()
	for j := i; j < cnt-1; j++ {
		h.t.Store(img.addr.Add(int64(8*(pairBase+2*j))), img.key(j+1))
		h.t.Store(img.addr.Add(int64(8*(pairBase+2*j+1))), img.val(j+1))
		img.words[pairBase+2*j] = img.key(j + 1)
		img.words[pairBase+2*j+1] = img.val(j + 1)
	}
	if i < cnt-1 {
		h.t.Flush(img.addr.Add(int64(8*(pairBase+2*i))), 8*2*(cnt-1-i))
		h.t.Fence()
	}
	h.t.Store(img.addr.Add(8*cntWord), uint64(cnt-1))
	h.t.Persist(img.addr, 8)
	return nil
}

// Lookup implements index.Handle.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	var img leafImg
	img.read(h.t, h.tr.leafFor(h.t, key))
	i := img.lowerBound(key)
	if i < img.count() && img.key(i) == key {
		return img.val(i), true
	}
	return 0, false
}

// Scan implements index.Handle: sorted leaves chain directly.
func (h *handle) Scan(start uint64, max int, out []index.KV) int {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	if max > len(out) {
		max = len(out)
	}
	var img leafImg
	img.read(h.t, h.tr.leafFor(h.t, start))
	count := 0
	i := img.lowerBound(start)
	for count < max {
		for ; i < img.count() && count < max; i++ {
			out[count] = index.KV{Key: img.key(i), Value: img.val(i)}
			count++
		}
		next := img.next()
		if next.IsNil() || count >= max {
			break
		}
		img.read(h.t, next)
		i = 0
	}
	return count
}
