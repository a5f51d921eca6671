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
	"sync"

	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// Tree is a FlatStore instance.
type Tree struct {
	pool   *pmem.Pool
	alloc  *pmalloc.Allocator
	walman *wal.Manager

	mu  sync.RWMutex
	dir memtree.Tree[pmem.Addr] // key -> log entry address
}

// New creates an empty FlatStore.
func New(pool *pmem.Pool) (*Tree, error) {
	tr := &Tree{pool: pool, alloc: pmalloc.New(pool)}
	tr.walman = wal.NewManager(tr.alloc, 512<<10)
	return tr, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) { return New(pool) }
}

// Name implements index.Index.
func (tr *Tree) Name() string { return "FlatStore" }

// Close implements index.Index.
func (tr *Tree) Close() {}

// MemoryUsage implements index.Index.
func (tr *Tree) MemoryUsage() (int64, int64) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return int64(tr.dir.Len()) * 24, tr.alloc.TotalInUseBytes()
}

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	return &handle{
		tr:  tr,
		t:   tr.pool.NewThread(socket),
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
	h.tr.mu.Lock()
	h.t.Advance(int64(h.tr.dir.Depth()) * 6 * h.t.CostDRAM())
	h.tr.dir.Put(key, addr)
	h.tr.mu.Unlock()
	return nil
}

// Delete implements index.Handle: tombstone append + index removal.
func (h *handle) Delete(key uint64) error {
	h.seq++
	if _, err := h.log.Append(h.t, wal.Entry{Key: key, Value: 0, Timestamp: h.seq}); err != nil {
		return err
	}
	h.tr.mu.Lock()
	h.tr.dir.Delete(key)
	h.tr.mu.Unlock()
	return nil
}

// Lookup implements index.Handle: index probe + one PM read.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.mu.RLock()
	h.t.Advance(int64(h.tr.dir.Depth()) * 6 * h.t.CostDRAM())
	addr, ok := h.tr.dir.Get(key)
	h.tr.mu.RUnlock()
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
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	if max > len(out) {
		max = len(out)
	}
	count := 0
	h.tr.dir.Ascend(start, func(k uint64, addr pmem.Addr) bool {
		out[count] = index.KV{Key: k, Value: h.t.Load(addr.Add(8))}
		count++
		return count < max
	})
	return count
}
