// Package utree reproduces uTree (Chen et al., VLDB '20): a DRAM
// shadow B+-tree indexing a PM singly linked list that stores one KV
// per 64 B list node. Keeping structural refinement (splits, shifts)
// entirely in DRAM gives uTree its low tail latency, but each insert
// persists one fresh list node and one predecessor pointer — two
// cacheline flushes to two unrelated XPLines — so XBI-amplification is
// among the worst of the evaluated indexes (Fig 3), and range scans
// chase random PM pointers (the slowest scans in Fig 10e).
//
// It is a prim.Hybrid whose directory indexes every key, over its own
// 64 B list node.
package utree

import (
	"fmt"

	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
)

// List node layout (64 B = one cacheline):
//
//	word0 key, word1 value, word2 next, words 3-7 pad
const nodeBytes = 64

// Tree is a uTree instance: the directory maps every key to its list
// node.
type Tree struct {
	*prim.Hybrid[pmem.Addr]
	head pmem.Addr // sentinel list node (key 0)
}

// New creates an empty uTree.
func New(pool *pmem.Pool) (*Tree, error) {
	// Shadow entry: key + pointer + B+-tree overhead (the paper notes
	// uTree's DRAM footprint rivals its PM footprint).
	hy := prim.NewHybrid[pmem.Addr](pool, "uTree", 32)
	head, err := hy.NewLine(pool.NewThread(0), nodeBytes)
	if err != nil {
		return nil, err
	}
	return &Tree{Hybrid: hy, head: head}, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle { return prim.Bind(tr, tr.Pool.NewThread(socket)) }

// pred returns the list node preceding key: its directory floor, or
// the sentinel. Caller holds tr.Mu.
func (tr *Tree) pred(key uint64) pmem.Addr {
	if _, p, ok := tr.Dir.FindLE(key); ok {
		return p
	}
	return tr.head
}

// Upsert updates a present key's node in place; otherwise it persists
// a fresh node and links it after its predecessor.
func (tr *Tree) Upsert(t *pmem.Thread, key, value uint64) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	tr.Traverse(t)

	if node, ok := tr.Dir.Get(key); ok {
		// In-place value update: one flush to the node's line.
		t.Store(node.Add(8), value)
		t.Persist(node.Add(8), 8)
		return nil
	}
	pred := tr.pred(key)
	succ := t.Load(pred.Add(16))

	node, err := tr.Alloc.Alloc(t.Socket(), nodeBytes)
	if err != nil {
		return fmt.Errorf("utree: %w", err)
	}
	// Persist the new node, then atomically link it: two flushes to
	// two unrelated XPLines.
	t.Store(node, key)
	t.Store(node.Add(8), value)
	t.Store(node.Add(16), succ)
	t.Persist(node, 24)
	t.Store(pred.Add(16), uint64(node))
	t.Persist(pred.Add(16), 8)

	tr.Dir.Put(key, node)
	return nil
}

// Delete unlinks the key's node from the list (one random flush) and
// drops the shadow entry.
func (tr *Tree) Delete(t *pmem.Thread, key uint64) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	node, ok := tr.Dir.Get(key)
	if !ok {
		return nil
	}
	tr.Dir.Delete(key)
	pred := tr.pred(key)
	succ := t.Load(node.Add(16))
	t.Store(pred.Add(16), succ)
	t.Persist(pred.Add(16), 8)
	tr.Alloc.Free(node, nodeBytes)
	return nil
}

// Lookup is a shadow-tree probe, then one PM read.
func (tr *Tree) Lookup(t *pmem.Thread, key uint64) (uint64, bool) {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	tr.Traverse(t)
	node, ok := tr.Dir.Get(key)
	if !ok {
		return 0, false
	}
	return t.Load(node.Add(8)), true
}

// Scan takes ordered keys from the shadow tree, but every value is a
// random PM pointer chase.
func (tr *Tree) Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	if max > len(out) {
		max = len(out)
	}
	count := 0
	tr.Dir.Ascend(start, func(k uint64, node pmem.Addr) bool {
		out[count] = index.KV{Key: k, Value: t.Load(node.Add(8))}
		count++
		return count < max
	})
	return count
}
