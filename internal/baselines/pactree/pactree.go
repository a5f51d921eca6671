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
//
// It is a prim.Hybrid over FAST&FAIR's sorted-shift node (prim.Node)
// with zero flags, each new leaf allocated on the splitting thread's
// socket.
package pactree

import (
	"fmt"

	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
)

// Tree is a PACTree-style index.
type Tree struct {
	*prim.Hybrid[pmem.Addr] // low key -> leaf
}

// New creates an empty tree.
func New(pool *pmem.Pool) (*Tree, error) {
	hy := prim.NewHybrid[pmem.Addr](pool, "PACTree", 20)
	head, err := hy.NewLine(pool.NewThread(0), prim.NodeBytes)
	if err != nil {
		return nil, err
	}
	hy.Dir.Put(0, head)
	return &Tree{hy}, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle { return prim.Bind(tr, tr.Pool.NewThread(socket)) }

// Upsert is a sorted insert with shifting.
func (tr *Tree) Upsert(t *pmem.Thread, key, value uint64) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	for {
		var n prim.Node
		n.Read(t, tr.Route(t, key))
		if !n.Upsert(t, key, value) {
			return nil
		}
		// New leaf on the local socket (PACTree's per-NUMA pools).
		right, err := tr.Alloc.Alloc(t.Socket(), prim.NodeBytes)
		if err != nil {
			return fmt.Errorf("pactree: leaf split: %w", err)
		}
		tr.Dir.Put(n.SplitLeaf(t, right), right)
	}
}

// Delete is a shift-left removal.
func (tr *Tree) Delete(t *pmem.Thread, key uint64) error {
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	var n prim.Node
	n.Read(t, tr.Route(t, key))
	n.Delete(t, key)
	return nil
}

// Lookup reads the routed leaf and binary-searches its image.
func (tr *Tree) Lookup(t *pmem.Thread, key uint64) (uint64, bool) {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	var n prim.Node
	n.Read(t, tr.Route(t, key))
	return n.Get(key)
}

// Scan follows the sorted leaf chain directly.
func (tr *Tree) Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	var n prim.Node
	n.Read(t, tr.Route(t, start))
	return n.Scan(t, start, max, out)
}
