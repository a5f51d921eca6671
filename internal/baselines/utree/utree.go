// Package utree reproduces uTree (Chen et al., VLDB '20): a DRAM
// shadow B+-tree indexing a PM singly linked list that stores one KV
// per 64 B list node. Keeping structural refinement (splits, shifts)
// entirely in DRAM gives uTree its low tail latency, but each insert
// persists one fresh list node and one predecessor pointer — two
// cacheline flushes to two unrelated XPLines — so XBI-amplification is
// among the worst of the evaluated indexes (Fig 3), and range scans
// chase random PM pointers (the slowest scans in Fig 10e).
package utree

import (
	"fmt"
	"sync"

	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
)

// List node layout (64 B = one cacheline):
//
//	word0 key, word1 value, word2 next, words 3-7 pad
const nodeBytes = 64

// Tree is a uTree instance.
type Tree struct {
	pool  *pmem.Pool
	alloc *pmalloc.Allocator

	mu   sync.RWMutex
	dir  memtree.Tree[pmem.Addr] // key -> list node
	head pmem.Addr               // sentinel list node (key 0)
}

// New creates an empty uTree.
func New(pool *pmem.Pool) (*Tree, error) {
	tr := &Tree{pool: pool, alloc: pmalloc.New(pool)}
	t := pool.NewThread(0)
	head, err := tr.alloc.Alloc(0, nodeBytes)
	if err != nil {
		return nil, fmt.Errorf("utree: %w", err)
	}
	t.WriteRange(head, make([]uint64, nodeBytes/8))
	t.Persist(head, nodeBytes)
	tr.head = head
	return tr, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) { return New(pool) }
}

// Name implements index.Index.
func (tr *Tree) Name() string { return "uTree" }

// Close implements index.Index.
func (tr *Tree) Close() {}

// MemoryUsage implements index.Index: the whole shadow tree is DRAM.
func (tr *Tree) MemoryUsage() (int64, int64) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	// Shadow entry: key + pointer + B+-tree overhead (the paper notes
	// uTree's DRAM footprint rivals its PM footprint).
	return int64(tr.dir.Len()) * 32, tr.alloc.TotalInUseBytes()
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

// Upsert implements index.Handle.
func (h *handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("utree: key 0 is reserved")
	}
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	h.t.Advance(int64(h.tr.dir.Depth()) * 6 * h.t.CostDRAM())

	if node, ok := h.tr.dir.Get(key); ok {
		// In-place value update: one flush to the node's line.
		h.t.Store(node.Add(8), value)
		h.t.Persist(node.Add(8), 8)
		return nil
	}
	// Predecessor in the list (sentinel when none).
	pred := h.tr.head
	if _, p, ok := h.tr.dir.FindLE(key); ok {
		pred = p
	}
	succ := h.t.Load(pred.Add(16))

	node, err := h.tr.alloc.Alloc(h.t.Socket(), nodeBytes)
	if err != nil {
		return fmt.Errorf("utree: %w", err)
	}
	// Persist the new node, then atomically link it: two flushes to
	// two unrelated XPLines.
	h.t.Store(node, key)
	h.t.Store(node.Add(8), value)
	h.t.Store(node.Add(16), succ)
	h.t.Persist(node, 24)
	h.t.Store(pred.Add(16), uint64(node))
	h.t.Persist(pred.Add(16), 8)

	h.tr.dir.Put(key, node)
	return nil
}

// Delete implements index.Handle: unlink from the list (one random
// flush) and drop the shadow entry.
func (h *handle) Delete(key uint64) error {
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	node, ok := h.tr.dir.Get(key)
	if !ok {
		return nil
	}
	pred := h.tr.head
	h.tr.dir.Delete(key)
	if _, p, ok := h.tr.dir.FindLE(key); ok {
		pred = p
	}
	succ := h.t.Load(node.Add(16))
	h.t.Store(pred.Add(16), succ)
	h.t.Persist(pred.Add(16), 8)
	h.tr.alloc.Free(node, nodeBytes)
	return nil
}

// Lookup implements index.Handle: shadow tree then one PM read.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	h.t.Advance(int64(h.tr.dir.Depth()) * 6 * h.t.CostDRAM())
	node, ok := h.tr.dir.Get(key)
	if !ok {
		return 0, false
	}
	return h.t.Load(node.Add(8)), true
}

// Scan implements index.Handle: ordered keys come from the shadow
// tree, but every value is a random PM pointer chase.
func (h *handle) Scan(start uint64, max int, out []index.KV) int {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	if max > len(out) {
		max = len(out)
	}
	count := 0
	h.tr.dir.Ascend(start, func(k uint64, node pmem.Addr) bool {
		out[count] = index.KV{Key: k, Value: h.t.Load(node.Add(8))}
		count++
		return count < max
	})
	return count
}
