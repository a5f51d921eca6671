// Package prim holds the primitives the tree baselines are built from,
// one per design axis of the paper's comparison (§2.3, §5): where the
// inner layer lives, how a leaf is kept and how a write is published.
//
//   - Hybrid is the volatile-directory skeleton: a DRAM search layer
//     (memtree) routing to PM nodes. FPTree, LB+-Tree, PACTree and
//     uTree are Hybrids.
//   - FPSplit, FPDelete, FPLookup and FPScan are the unsorted
//     fingerprinted leaf (the 256 B pmleaf line) that FPTree and
//     LB+-Tree share: split-then-publish through the header word,
//     bitmap-clear delete, fingerprint probe and sorted chain scan.
//   - Node is the sorted-shift node FAST&FAIR uses for leaves and inner
//     nodes and PACTree for leaves: a count|flags word, a link word and
//     15 sorted pairs, updated by failure-atomic 8 B shifts.
//
// Bind adapts any baseline's thread-charged data path (Ops) to
// index.Handle.
//
// Each primitive issues the pmem calls, in order, and the virtual-time
// charges its baselines made when each carried a private copy, so the
// composed baselines keep their modeled behaviour exactly.
package prim

import (
	"fmt"
	"sync"

	"cclbtree/internal/memtree"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
)

// Hybrid is a DRAM directory over PM nodes: the shared skeleton of the
// hybrid baselines. Dir maps each node's low key to V (a node address,
// or a per-node record); callers guard Dir with Mu.
type Hybrid[V any] struct {
	Pool  *pmem.Pool
	Alloc *pmalloc.Allocator
	Mu    sync.RWMutex
	Dir   memtree.Tree[V]

	name       string
	entryBytes int64 // modeled DRAM bytes per directory entry
}

// NewHybrid creates an empty directory named name whose entries cost
// entryBytes of DRAM each (MemoryUsage, Fig 18).
func NewHybrid[V any](pool *pmem.Pool, name string, entryBytes int64) *Hybrid[V] {
	return &Hybrid[V]{Pool: pool, Alloc: pmalloc.New(pool), name: name, entryBytes: entryBytes}
}

// NewLine allocates an n-byte node on t's socket, zeroed and persisted.
func (hy *Hybrid[V]) NewLine(t *pmem.Thread, n int) (pmem.Addr, error) {
	a, err := hy.Alloc.Alloc(t.Socket(), n)
	if err != nil {
		return pmem.NilAddr, fmt.Errorf("%s: %w", hy.name, err)
	}
	t.WriteRange(a, make([]uint64, n/pmem.WordSize))
	t.Persist(a, n)
	return a, nil
}

// Name implements index.Index.
func (hy *Hybrid[V]) Name() string { return hy.name }

// Close implements index.Index (no background work).
func (hy *Hybrid[V]) Close() {}

// MemoryUsage implements index.Index: DRAM directory entries + PM.
func (hy *Hybrid[V]) MemoryUsage() (int64, int64) {
	hy.Mu.RLock()
	defer hy.Mu.RUnlock()
	return int64(hy.Dir.Len()) * hy.entryBytes, hy.Alloc.TotalInUseBytes()
}

// Traverse charges t one directory descent: six DRAM accesses a level.
func (hy *Hybrid[V]) Traverse(t *pmem.Thread) {
	t.Advance(int64(hy.Dir.Depth()) * 6 * t.CostDRAM())
}

// Floor returns the entry owning key: the one with the greatest low key
// ≤ key, else the first. It charges nothing. Caller holds Mu.
func (hy *Hybrid[V]) Floor(key uint64) V {
	_, v, ok := hy.Dir.FindLE(key)
	if !ok {
		_, v, _ = hy.Dir.Min()
	}
	return v
}

// Route is Floor after charging t for the descent. Caller holds Mu.
func (hy *Hybrid[V]) Route(t *pmem.Thread, key uint64) V {
	hy.Traverse(t)
	return hy.Floor(key)
}
