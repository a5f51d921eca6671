// Package flatstore reimplements FlatStore (Chen et al., ASPLOS '20)
// the way the paper did for its comparison (§5.1, the original is not
// open source): a log-structured PM layout — per-thread logs receiving
// every KV as a sequential append — under a volatile index mapping keys
// to log positions.
//
// Sequential appends give FlatStore near-1 XBI-amplification and the
// best insert throughput (Table 3), but entries live in chronological,
// not key, order: a range query takes one random PM read per element,
// which is exactly the 82% range-query degradation the paper motivates
// CCL-BTree with (Fig 5).
package flatstore

import (
	"fmt"

	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// Tree is a FlatStore instance: a Hybrid whose directory maps each key
// to its latest log entry.
type Tree struct {
	*prim.Hybrid[pmem.Addr]
	walman *wal.Manager
}

// New creates an empty FlatStore.
func New(pool *pmem.Pool) (*Tree, error) {
	hy := prim.NewHybrid[pmem.Addr](pool, "FlatStore", 24)
	return &Tree{Hybrid: hy, walman: wal.NewManager(hy.Alloc, 512<<10)}, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	return &handle{
		tr:  tr,
		t:   tr.Pool.NewThread(socket),
		log: wal.NewLog(tr.walman, socket),
		seq: 1,
	}
}

type handle struct {
	tr  *Tree
	t   *pmem.Thread
	log *wal.Log
	seq uint64
}

func (h *handle) Thread() *pmem.Thread { return h.t }

// Upsert implements index.Handle: sequential log append + volatile
// index update.
func (h *handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("flatstore: key 0 is reserved")
	}
	h.seq++
	addr, err := h.log.Append(h.t, wal.Entry{Key: key, Value: value, Timestamp: h.seq})
	if err != nil {
		return err
	}
	h.tr.Mu.Lock()
	h.tr.Traverse(h.t)
	h.tr.Dir.Put(key, addr)
	h.tr.Mu.Unlock()
	return nil
}

// Delete implements index.Handle: tombstone append + index removal.
func (h *handle) Delete(key uint64) error {
	h.seq++
	if _, err := h.log.Append(h.t, wal.Entry{Key: key, Value: 0, Timestamp: h.seq}); err != nil {
		return err
	}
	h.tr.Mu.Lock()
	h.tr.Dir.Delete(key)
	h.tr.Mu.Unlock()
	return nil
}

// Lookup implements index.Handle: index probe + one PM read.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.Mu.RLock()
	h.tr.Traverse(h.t)
	addr, ok := h.tr.Dir.Get(key)
	h.tr.Mu.RUnlock()
	if !ok {
		return 0, false
	}
	v := h.t.Load(addr.Add(8))
	return v, true
}

// Scan implements index.Handle: keys are ordered in the volatile index
// but every value sits at a chronologically determined log position —
// one random PM read per result.
func (h *handle) Scan(start uint64, max int, out []index.KV) int {
	h.tr.Mu.RLock()
	defer h.tr.Mu.RUnlock()
	if max > len(out) {
		max = len(out)
	}
	count := 0
	h.tr.Dir.Ascend(start, func(k uint64, addr pmem.Addr) bool {
		out[count] = index.KV{Key: k, Value: h.t.Load(addr.Add(8))}
		count++
		return count < max
	})
	return count
}
