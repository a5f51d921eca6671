// Package fastfair is a reproduction of FAST&FAIR (Hwang et al., FAST
// '18) at the fidelity this repository's experiments need: a B+-tree
// kept entirely in PM with sorted 256 B nodes, failure-atomic shifting
// on insert (every 8 B store is atomic; shifted regions are flushed per
// cacheline), and sibling pointers for range scans.
//
// Being all-PM it pays PM latency for inner-node traversal, and its
// sorted leaves shift on average half a node per insert — several
// cacheline flushes landing in one random XPLine. That makes it the
// classic "low CLI, high XBI" design the paper measures (Fig 3).
//
// Leaves and inner nodes are both prim.Node, the sorted-shift node
// PACTree shares; what is FAST&FAIR's own is the PM inner layer: the
// descent, separator install and root growth.
//
// Simplifications vs. the original: a coarse reader/writer lock
// replaces lock-free reads (virtual-time results are unaffected; the
// cost model charges the same PM work), and underflow merging is
// omitted (the original also tolerates underfull nodes).
package fastfair

import (
	"fmt"
	"sync"

	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
)

// leafFlag marks a leaf in a node's count|flags word.
const leafFlag = uint64(1) << 16

// Tree is a FAST&FAIR B+-tree on a PM pool.
type Tree struct {
	pool  *pmem.Pool
	alloc *pmalloc.Allocator

	mu   sync.RWMutex
	root pmem.Addr
}

// New creates an empty tree.
func New(pool *pmem.Pool) (*Tree, error) {
	tr := &Tree{pool: pool, alloc: pmalloc.New(pool)}
	root, err := tr.newNode(pool.NewThread(0), leafFlag)
	if err != nil {
		return nil, err
	}
	tr.root = root
	return tr, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// Name implements index.Index.
func (tr *Tree) Name() string { return "FAST&FAIR" }

// Close implements index.Index (no background work).
func (tr *Tree) Close() {}

// MemoryUsage implements index.Index: FAST&FAIR is a pure-PM index.
func (tr *Tree) MemoryUsage() (int64, int64) {
	return 0, tr.alloc.TotalInUseBytes()
}

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle { return prim.Bind(tr, tr.pool.NewThread(socket)) }

// newNode allocates a node on t's socket and persists its empty image
// (flags only) before any content is written into it.
func (tr *Tree) newNode(t *pmem.Thread, flags uint64) (pmem.Addr, error) {
	a, err := tr.alloc.Alloc(t.Socket(), prim.NodeBytes)
	if err != nil {
		return pmem.NilAddr, fmt.Errorf("fastfair: %w", err)
	}
	n := prim.Node{Addr: a}
	n.SetMeta(flags, 0)
	n.Write(t)
	return a, nil
}

func isLeaf(n *prim.Node) bool { return n.Flags()&leafFlag != 0 }

// childFor routes k in an inner node.
func childFor(n *prim.Node, k uint64) pmem.Addr {
	i, found := n.Find(k)
	if found {
		return pmem.Addr(n.Val(i))
	}
	if i == 0 {
		return n.Link()
	}
	return pmem.Addr(n.Val(i - 1))
}

// descend walks from the root to the leaf owning k, filling path with
// the visited inner nodes (root first).
func (tr *Tree) descend(t *pmem.Thread, k uint64, path *[]prim.Node) prim.Node {
	var n prim.Node
	a := tr.root
	for {
		n.Read(t, a)
		if isLeaf(&n) {
			return n
		}
		if path != nil {
			*path = append(*path, n)
		}
		a = childFor(&n, k)
	}
}

// Lookup descends and binary-searches the leaf image.
func (tr *Tree) Lookup(t *pmem.Thread, key uint64) (uint64, bool) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	leaf := tr.descend(t, key, nil)
	return leaf.Get(key)
}

// Scan descends to start's leaf and follows the sibling chain.
func (tr *Tree) Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	leaf := tr.descend(t, start, nil)
	return leaf.Scan(t, start, max, out)
}

// Upsert updates in place or shift-inserts, splitting a full leaf and
// re-descending into the correct half.
func (tr *Tree) Upsert(t *pmem.Thread, key, value uint64) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for {
		path := make([]prim.Node, 0, 8)
		leaf := tr.descend(t, key, &path)
		if !leaf.Upsert(t, key, value) {
			return nil
		}
		if err := tr.divide(t, &leaf, path); err != nil {
			return err
		}
	}
}

// divide splits a full node and installs the separator in the parent
// chain (path holds the ancestors, root first). A leaf keeps the
// separator in its right half; an inner node promotes it.
func (tr *Tree) divide(t *pmem.Thread, n *prim.Node, path []prim.Node) error {
	right, err := tr.newNode(t, n.Flags())
	if err != nil {
		return err
	}
	var sep uint64
	if isLeaf(n) {
		sep = n.SplitLeaf(t, right)
	} else {
		const mid = prim.MaxPairs / 2
		sep = n.Key(mid)
		r := prim.Node{Addr: right}
		rc := prim.MaxPairs - mid - 1
		r.SetMeta(0, rc)
		r.SetLink(pmem.Addr(n.Val(mid))) // leftmost child of the right node
		for i := 0; i < rc; i++ {
			r.SetPair(i, n.Key(mid+1+i), n.Val(mid+1+i))
		}
		r.Write(t)
		n.Shrink(t, mid)
	}

	// Install the separator upward.
	if len(path) == 0 {
		newRoot, err := tr.newNode(t, 0)
		if err != nil {
			return err
		}
		root := prim.Node{Addr: newRoot}
		root.SetMeta(0, 1)
		root.SetLink(n.Addr)
		root.SetPair(0, sep, uint64(right))
		root.Write(t)
		tr.root = newRoot
		return nil
	}
	return tr.install(t, sep, right, path)
}

// install places sep→child in the last node of path. A full parent is
// split first, after which sep's parent may be either half, so the path
// is read again from the root.
func (tr *Tree) install(t *pmem.Thread, sep uint64, child pmem.Addr, path []prim.Node) error {
	parent := path[len(path)-1]
	if parent.Count() < prim.MaxPairs {
		parent.ShiftInsert(t, parent.LowerBound(sep), sep, uint64(child))
		return nil
	}
	if err := tr.divide(t, &parent, path[:len(path)-1]); err != nil {
		return err
	}
	path = make([]prim.Node, 0, 8)
	tr.descend(t, sep, &path)
	if path[len(path)-1].Count() == prim.MaxPairs {
		tr.descend(t, sep, nil) // a double cascade reads the path once more
	}
	return tr.install(t, sep, child, path)
}

// Delete is a shift-left removal (FAST&FAIR keeps underfull nodes).
func (tr *Tree) Delete(t *pmem.Thread, key uint64) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	leaf := tr.descend(t, key, nil)
	leaf.Delete(t, key)
	return nil
}
